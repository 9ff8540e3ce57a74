type t = int

module Pool = struct
  type var = t
  type t = { mutable size : int }

  let create () = { size = 0 }

  let fresh pool =
    let v = pool.size in
    pool.size <- v + 1;
    v

  let size pool = pool.size
end
