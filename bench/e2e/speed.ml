(* Host speed, sampled between one-shot inputs.

   On a shared host the CPU's speed drifts by tens of percent over minutes
   (the benchmark's README gives the measurements), and process CPU time
   does not show it.  The one-shot timings and set-up times are therefore
   divided by the run's speed factor: the median time of a fixed reference
   kernel, sampled before each input, over that kernel's time on the
   reference host.  The kernel is bench code, so no change to the reducer
   can change it, and it allocates nothing, so no GC setting can.  Its
   256 KiB table is evicted by the megabytes every reduction allocates, so
   each sample pays cache refills as the reducer's own memory accesses do;
   a kernel that stays in L1 tracked the drift only half as well. *)

(* The kernel's median time between reductions on a 2-vCPU Intel Xeon
   (2.1 GHz) VM; reported timings read as seconds on that host. *)
let reference_s = 0.8e-3

let table = Array.init 32768 (fun i -> i * 7)

let kernel () =
  let x = ref 1 in
  for _ = 1 to 100_000 do
    let i = !x land 32767 in
    x := ((!x * 1103515245) + 12345 + table.(i)) land 0x3FFFFFFF;
    table.(i) <- !x
  done;
  !x

type t = { mutable samples : float list }

let create () = { samples = [] }

(* One timed kernel call; returns its duration. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  let dt = Unix.gettimeofday () -. t0 in
  t.samples <- dt :: t.samples;
  dt

(* Median kernel time over the reference: above 1 when the host is slow. *)
let factor t =
  match List.sort compare t.samples with
  | [] -> 1.0
  | sorted -> List.nth sorted (List.length sorted / 2) /. reference_s
