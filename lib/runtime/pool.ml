type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;  (* signaled on enqueue and on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : (unit -> unit) list;  (* each joins one worker *)
}

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

(* Workers drain the queue even while stopping, so shutdown is graceful:
   everything submitted before [shutdown] still runs. *)
let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.stopping do
    Condition.wait pool.has_work pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stopping: exit *)
  else begin
    let job = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    Lbr_obs.Trace.with_span "pool.task" (fun () -> job ());
    worker_loop pool
  end

let create ?(threads = false) ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init jobs (fun _ ->
        if threads then
          let th = Thread.create worker_loop pool in
          fun () -> Thread.join th
        else
          let d = Domain.spawn (fun () -> worker_loop pool) in
          fun () -> Domain.join d);
  pool

let jobs pool = pool.jobs

let submit pool f =
  let future = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  let job () =
    let result =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock future.fm;
    future.state <- result;
    Condition.broadcast future.fc;
    Mutex.unlock future.fm
  in
  Mutex.lock pool.mutex;
  if pool.stopping then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add job pool.queue;
  Condition.signal pool.has_work;
  Mutex.unlock pool.mutex;
  future

let await future =
  Mutex.lock future.fm;
  let rec wait () =
    match future.state with
    | Pending ->
        Condition.wait future.fc future.fm;
        wait ()
    | Done v ->
        Mutex.unlock future.fm;
        v
    | Failed (e, bt) ->
        Mutex.unlock future.fm;
        Printexc.raise_with_backtrace e bt
  in
  wait ()

let map_list pool f xs =
  let futures = List.map (fun x -> submit pool (fun () -> f x)) xs in
  List.map await futures

let shutdown pool =
  Mutex.lock pool.mutex;
  let workers = pool.workers in
  pool.stopping <- true;
  pool.workers <- [];
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.mutex;
  List.iter (fun join -> join ()) workers

let with_pool ~jobs f =
  let pool = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
