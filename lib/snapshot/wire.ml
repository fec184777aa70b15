(* Binary wire primitives for the snapshot format.

   Writers append to a [Buffer.t]; readers consume a [string] through a
   mutable cursor and raise {!Corrupt} on malformed input (the public
   parser converts that into a [result]).  Integers use signed LEB128
   varints, so any OCaml [int] — including [max_int], which appears as
   the parked [preempt_at] horizon — round-trips; densely packed arrays
   (flash words, SRAM) use fixed-width little-endian fields instead. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- writers ------------------------------------------------------------- *)

module W = struct
  type t = Buffer.t

  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  (* Signed LEB128. *)
  let int b v =
    let rec go v =
      let byte = v land 0x7F in
      let rest = v asr 7 in
      let done_ = (rest = 0 && byte land 0x40 = 0) || (rest = -1 && byte land 0x40 <> 0) in
      u8 b (if done_ then byte else byte lor 0x80);
      if not done_ then go rest
    in
    go v

  let bool b v = u8 b (if v then 1 else 0)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let bytes b (s : Bytes.t) = string b (Bytes.unsafe_to_string s)

  let option b f = function
    | None -> u8 b 0
    | Some v -> u8 b 1; f b v

  let list b f xs =
    int b (List.length xs);
    List.iter (f b) xs

  (* Dense array of values in [0, 0xFFFF], two bytes LE each (flash). *)
  let u16_array b (a : int array) =
    int b (Array.length a);
    Array.iter
      (fun v ->
        u8 b (v land 0xFF);
        u8 b ((v lsr 8) land 0xFF))
      a

  (* Small array of ints (registers, stats): varint each. *)
  let int_array b (a : int array) =
    int b (Array.length a);
    Array.iter (int b) a
end

(* --- readers ------------------------------------------------------------- *)

module R = struct
  type t = { s : string; mutable pos : int; limit : int }

  let of_string ?(pos = 0) ?limit s =
    let limit = match limit with Some l -> l | None -> String.length s in
    { s; pos; limit }

  let eof r = r.pos >= r.limit

  let u8 r =
    if r.pos >= r.limit then corrupt "truncated input at %d" r.pos;
    let c = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let int r =
    let rec go shift acc =
      if shift > 70 then corrupt "varint too long at %d" r.pos;
      let byte = u8 r in
      let acc = acc lor ((byte land 0x7F) lsl shift) in
      let shift = shift + 7 in
      if byte land 0x80 <> 0 then go shift acc
      else if byte land 0x40 <> 0 && shift < Sys.int_size then
        acc lor (-1 lsl shift) (* sign-extend *)
      else acc
    in
    go 0 0

  let bool r = match u8 r with 0 -> false | 1 -> true | v -> corrupt "bad bool %d" v

  let string r =
    let n = int r in
    if n < 0 || n > r.limit - r.pos then corrupt "bad string length %d at %d" n r.pos;
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  let bytes r = Bytes.of_string (string r)

  let option r f = match u8 r with
    | 0 -> None
    | 1 -> Some (f r)
    | v -> corrupt "bad option tag %d" v

  (* Every list or array element takes at least one byte, so a length
     beyond the bytes that remain is corrupt: reject it before
     allocating. *)
  let list r f =
    let n = int r in
    if n < 0 || n > r.limit - r.pos then corrupt "bad list length %d at %d" n r.pos;
    List.init n (fun _ -> f r)

  let u16_array r =
    let n = int r in
    if n < 0 || n * 2 > r.limit - r.pos then corrupt "bad u16 array length %d" n;
    let a = Array.init n (fun i ->
        let base = r.pos + (2 * i) in
        Char.code r.s.[base] lor (Char.code r.s.[base + 1] lsl 8))
    in
    r.pos <- r.pos + (2 * n);
    a

  let int_array r =
    let n = int r in
    if n < 0 || n > r.limit - r.pos then
      corrupt "bad int array length %d at %d" n r.pos;
    Array.init n (fun _ -> int r)
end

(* --- self-describing sections -------------------------------------------- *)

(* A section is a named, length-prefixed blob: readers can skip sections
   they do not understand, which is what lets the format grow without
   breaking old readers within a major version. *)

let w_section (b : Buffer.t) name f =
  W.string b name;
  let payload = Buffer.create 256 in
  f payload;
  W.string b (Buffer.contents payload)

(** Read every [name -> payload] section until end of input. *)
let r_sections (r : R.t) : (string * string) list =
  let rec go acc =
    if R.eof r then List.rev acc
    else
      let name = R.string r in
      let payload = R.string r in
      go ((name, payload) :: acc)
  in
  go []
