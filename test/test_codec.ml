(* Tests for the binary codec every format is built from: any sequence of
   primitives round-trips, and the reader is total on truncated and
   bit-flipped input. *)

module Codec = Lbr_codec.Codec

type prim =
  | U8 of int
  | U16 of int
  | U32 of int
  | I64 of int
  | F64 of float
  | Bool of bool
  | Str16 of string
  | Bytes32 of string

let write b = function
  | U8 n -> Codec.w_u8 b n
  | U16 n -> Codec.w_u16 b n
  | U32 n -> Codec.w_u32 b n
  | I64 n -> Codec.w_i64 b n
  | F64 f -> Codec.w_f64 b f
  | Bool v -> Codec.w_bool b v
  | Str16 s -> Codec.w_str16 b s
  | Bytes32 s -> Codec.w_bytes32 b s

(* Read back a value of the same shape as [p]. *)
let read_like r = function
  | U8 _ -> U8 (Codec.r_u8 r)
  | U16 _ -> U16 (Codec.r_u16 r)
  | U32 _ -> U32 (Codec.r_u32 r)
  | I64 _ -> I64 (Codec.r_i64 r)
  | F64 _ -> F64 (Codec.r_f64 r)
  | Bool _ -> Bool (Codec.r_bool r)
  | Str16 _ -> Str16 (Codec.r_str16 r)
  | Bytes32 _ -> Bytes32 (Codec.r_bytes32 r)

let encode prims =
  let b = Buffer.create 256 in
  List.iter (write b) prims;
  Buffer.contents b

let decode prims data = Codec.read data (fun r -> List.map (read_like r) prims)

let prim_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 300) in
  oneof
    [
      map (fun n -> U8 n) (int_bound 0xFF);
      map (fun n -> U16 n) (int_bound 0xFFFF);
      map (fun n -> U32 n) (int_range 0 0xFFFF_FFFF);
      map (fun n -> I64 n) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
      map
        (fun f -> F64 f)
        (oneof [ float; oneofl [ nan; infinity; neg_infinity; -0.; max_float; min_float ] ]);
      map (fun v -> Bool v) bool;
      map (fun s -> Str16 s) str;
      map (fun s -> Bytes32 s) str;
    ]

let prims_gen = QCheck.Gen.(list_size (int_range 0 30) prim_gen)

(* [compare], not [=]: nan must equal itself. *)
let same a b = compare a b = 0

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"any primitive sequence round-trips"
    (QCheck.make prims_gen)
    (fun prims -> same (decode prims (encode prims)) (Ok prims))

(* Every primitive takes at least one byte, so every strict prefix is
   short of some field. *)
let prop_truncation =
  QCheck.Test.make ~count:300 ~name:"truncated input reads as Error"
    (QCheck.make QCheck.Gen.(pair prims_gen nat))
    (fun (prims, cut) ->
      let data = encode prims in
      String.length data = 0
      || Result.is_error (decode prims (String.sub data 0 (cut mod String.length data))))

let prop_bitflip =
  QCheck.Test.make ~count:500 ~name:"bit-flipped input reads as Ok or Error, never raises"
    (QCheck.make QCheck.Gen.(triple prims_gen nat (int_bound 7)))
    (fun (prims, pos, bit) ->
      let data = Bytes.of_string (encode prims) in
      Bytes.length data = 0
      ||
      let pos = pos mod Bytes.length data in
      Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor (1 lsl bit)));
      match decode prims (Bytes.to_string data) with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)

let raises_invalid what f =
  match f () with
  | () -> Alcotest.failf "%s: no Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_writer_range () =
  let b = Buffer.create 16 in
  raises_invalid "u8 256" (fun () -> Codec.w_u8 b 256);
  raises_invalid "u16 -1" (fun () -> Codec.w_u16 b (-1));
  raises_invalid "u32 2^32" (fun () -> Codec.w_u32 b (1 lsl 32));
  raises_invalid "str16 of 65536 bytes" (fun () -> Codec.w_str16 b (String.make 0x10000 'x'));
  Alcotest.(check int) "nothing written" 0 (Buffer.length b)

let test_reader_checks () =
  let is_error what r = Alcotest.(check bool) what true (Result.is_error r) in
  is_error "bool 2" (Codec.read "\002" Codec.r_bool);
  is_error "trailing byte" (Codec.read "\001\000" Codec.r_bool);
  (* a count, then four bytes that are consumed either way *)
  let count r =
    let n = Codec.r_count r (Codec.r_u32 r) in
    Codec.r_magic r "abcd";
    n
  in
  is_error "count past the bytes left" (Codec.read "\000\000\000\005abcd" count);
  Alcotest.(check bool) "count within the bytes left" true
    (Codec.read "\000\000\000\004abcd" count = Ok 4);
  is_error "bad magic" (Codec.read "LBRX" (fun r -> Codec.r_magic r "LBRC"));
  is_error "format failure" (Codec.read "" (fun _ -> Codec.fail "no %s" "luck"))

let () =
  Alcotest.run "codec"
    [
      ( "codec",
        [
          Alcotest.test_case "writers refuse out-of-range values" `Quick test_writer_range;
          Alcotest.test_case "reader checks" `Quick test_reader_checks;
        ] );
      ( "codec-prop",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_truncation; prop_bitflip ] );
    ]
