let check what max n =
  if n < 0 || n > max then invalid_arg (Printf.sprintf "Codec.%s: %d out of range" what n)

let w_u8 b n =
  check "w_u8" 0xFF n;
  Buffer.add_uint8 b n

let w_u16 b n =
  check "w_u16" 0xFFFF n;
  Buffer.add_uint16_be b n

let w_u32 b n =
  check "w_u32" 0xFFFF_FFFF n;
  Buffer.add_int32_be b (Int32.of_int n)

let w_i64 b n = Buffer.add_int64_be b (Int64.of_int n)
let w_f64 b f = Buffer.add_int64_be b (Int64.bits_of_float f)
let w_bool b v = Buffer.add_uint8 b (Bool.to_int v)

let w_str16 b s =
  w_u16 b (String.length s);
  Buffer.add_string b s

let w_bytes32 b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

type reader = { data : string; mutable pos : int }

(* The only exception a reader raises; [read] turns it into [Error]. *)
exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt
let remaining r = String.length r.data - r.pos

(* Claim the next [n] bytes; the position they start at. *)
let take r n what =
  if n > remaining r then fail "truncated %s at byte %d" what r.pos;
  let p = r.pos in
  r.pos <- p + n;
  p

let r_u8 r = String.get_uint8 r.data (take r 1 "u8")
let r_u16 r = String.get_uint16_be r.data (take r 2 "u16")
let r_u32 r = Int32.to_int (String.get_int32_be r.data (take r 4 "u32")) land 0xFFFF_FFFF
let r_i64 r = Int64.to_int (String.get_int64_be r.data (take r 8 "i64"))
let r_f64 r = Int64.float_of_bits (String.get_int64_be r.data (take r 8 "f64"))
let r_bool r = match r_u8 r with 0 -> false | 1 -> true | n -> fail "bad bool %d" n
let r_sub r n what = String.sub r.data (take r n what) n
let r_str16 r = r_sub r (r_u16 r) "str16"
let r_bytes32 r = r_sub r (r_u32 r) "bytes32"

let r_magic r m =
  let got = r_sub r (String.length m) "magic" in
  if got <> m then fail "bad magic %S (expected %S)" got m

let r_count r n =
  if n > remaining r then fail "count %d exceeds the %d bytes left" n (remaining r);
  n

let read data f =
  let r = { data; pos = 0 } in
  match
    let v = f r in
    if remaining r <> 0 then fail "trailing garbage at byte %d" r.pos;
    v
  with
  | v -> Ok v
  | exception Malformed m -> Error m
