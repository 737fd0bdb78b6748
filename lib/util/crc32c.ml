(* Slicing-by-8 CRC-32C over native ints: the running CRC lives in the low
   32 bits of an [int], so the loops allocate nothing. Each step folds
   eight input bytes through eight 256-entry tables — table [k] maps a
   byte to its contribution [k] bytes ahead of the end of the block —
   and a bytewise loop finishes the tail. Public results are the same
   [int32] values as the classic table-driven bytewise CRC. *)

let poly = 0x82f63b78

(* Table [k] occupies [tables.(256 * k) .. tables.(256 * k + 255)]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor poly else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.((256 * (k - 1)) + i) in
      t.((256 * k) + i) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let[@inline] tbl k i = Array.unsafe_get tables ((256 * k) + i)
let[@inline] step_byte crc byte = tbl 0 ((crc lxor byte) land 0xff) lxor (crc lsr 8)

(* [lo] is the next four bytes xor the running CRC, [hi] the four after. *)
let[@inline] step8 lo hi =
  tbl 7 (lo land 0xff)
  lxor tbl 6 ((lo lsr 8) land 0xff)
  lxor tbl 5 ((lo lsr 16) land 0xff)
  lxor tbl 4 (lo lsr 24)
  lxor tbl 3 (hi land 0xff)
  lxor tbl 2 ((hi lsr 8) land 0xff)
  lxor tbl 1 ((hi lsr 16) land 0xff)
  lxor tbl 0 (hi lsr 24)

external swap32 : int32 -> int32 = "%bswap_int32"
external string_get32u : string -> int -> int32 = "%caml_string_get32u"
external bigstring_get32u : Bigslice.buf -> int -> int32 = "%caml_bigstring_get32u"

(* Unsigned little-endian 32-bit loads; callers have bounds-checked. *)
let[@inline] string_u32 s i =
  let v = string_get32u s i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffff_ffff

let[@inline] bigstring_u32 b i =
  let v = bigstring_get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffff_ffff

let string_crc crc s pos len =
  let crc = ref crc and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    crc := step8 (!crc lxor string_u32 s !i) (string_u32 s (!i + 4));
    i := !i + 8
  done;
  while !i < stop do
    crc := step_byte !crc (Char.code (String.unsafe_get s !i));
    i := !i + 1
  done;
  !crc

let bigstring_crc crc b pos len =
  let crc = ref crc and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    crc := step8 (!crc lxor bigstring_u32 b !i) (bigstring_u32 b (!i + 4));
    i := !i + 8
  done;
  while !i < stop do
    crc := step_byte !crc (Char.code (Bigarray.Array1.unsafe_get b !i));
    i := !i + 1
  done;
  !crc

let start init = Int32.to_int init land 0xffff_ffff lxor 0xffff_ffff
let finish crc = Int32.of_int (crc lxor 0xffff_ffff)

(* Written so that no sum can overflow: [pos + len] would wrap for a huge
   [len] and let the unchecked loads run off the end. *)
let check_slice fn ~length ~pos ~len =
  if pos < 0 || len < 0 || len > length - pos then invalid_arg (fn ^ ": slice out of bounds")

let substring ?(init = 0l) s ~pos ~len =
  check_slice "Crc32c.substring" ~length:(String.length s) ~pos ~len;
  finish (string_crc (start init) s pos len)

let string ?(init = 0l) s = finish (string_crc (start init) s 0 (String.length s))

let bytes ?(init = 0l) b ~pos ~len =
  check_slice "Crc32c.bytes" ~length:(Bytes.length b) ~pos ~len;
  finish (string_crc (start init) (Bytes.unsafe_to_string b) pos len)

let bigslice ?(init = 0l) b ~pos ~len =
  check_slice "Crc32c.bigslice" ~length:(Bigslice.length b) ~pos ~len;
  finish (bigstring_crc (start init) (Bigslice.bigarray b) (Bigslice.offset b + pos) len)

(* Masking as in LevelDB: rotate right 15 bits and add a constant, so a CRC
   computed over data that itself contains CRCs stays well distributed. *)
let mask_delta = 0xa282ead8l

let mask crc =
  let rot =
    Int32.logor (Int32.shift_right_logical crc 15) (Int32.shift_left crc 17)
  in
  Int32.add rot mask_delta

let unmask masked =
  let rot = Int32.sub masked mask_delta in
  Int32.logor (Int32.shift_right_logical rot 17) (Int32.shift_left rot 15)
