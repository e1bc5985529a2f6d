type t = { mutable arr : int array; mutable len : int }

let create ?(capacity = 64) () = { arr = Array.make (max 1 capacity) 0; len = 0 }
let length b = b.len

let push b v =
  if b.len = Array.length b.arr then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  Array.unsafe_set b.arr b.len v;
  b.len <- b.len + 1

let pop b =
  if b.len = 0 then invalid_arg "Ibuf.pop: empty buffer";
  b.len <- b.len - 1;
  Array.unsafe_get b.arr b.len

let contents b = Array.sub b.arr 0 b.len
