(* Digits are written backwards into [digits] and appended in one blit.
   [digits] is scratch shared by every call: nothing yields while it is
   in use, and the library runs on one domain. *)
let digits = Bytes.create 20

let add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    let pos = ref 20 and n = ref n in
    while
      decr pos;
      Bytes.unsafe_set digits !pos (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10;
      !n > 0
    do
      ()
    done;
    Buffer.add_subbytes buf digits !pos (20 - !pos)
  end

let max_int64 = Int64.of_int max_int

let add_int64 buf n =
  if Int64.compare n 0L >= 0 && Int64.compare n max_int64 <= 0 then add_int buf (Int64.to_int n)
  else Buffer.add_string buf (Int64.to_string n)
