let nbuckets = 63

type t = {
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  buckets : int array;
}

let create () =
  { count = 0; sum = 0; min_v = max_int; max_v = 0; buckets = Array.make nbuckets 0 }

(* Bucket i holds samples v with 2^i <= v < 2^(i+1); 0 and 1 share bucket 0. *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    min (nbuckets - 1) !b
  end

let add t v =
  let v = if v < 0 then 0 else v in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

let bucket_count t i = t.buckets.(i)

(* Inclusive upper edge of bucket i: 2^(i+1)-1, except the top bucket
   absorbs everything up to max_int (bucket_of clamps). *)
let bucket_upper_bound i =
  if i >= nbuckets - 1 then max_int else (1 lsl (i + 1)) - 1

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let quantile t q =
  if t.count = 0 then None
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    if rank >= t.count then Some t.max_v
    else begin
    let est = ref t.max_v in
    let cum = ref 0 in
    (try
       for b = 0 to nbuckets - 1 do
         cum := !cum + t.buckets.(b);
         if !cum >= rank then begin
           let lo = if b = 0 then 0 else 1 lsl b in
           let hi = bucket_upper_bound b in
           (* lo + (hi-lo)/2, not (lo+hi)/2: the latter overflows for the
              top buckets (lo + max_int wraps negative) and the estimate
              would clamp to min_v instead of max_v. *)
           est := lo + ((hi - lo) / 2);
           raise Exit
         end
       done
     with Exit -> ());
    Some (min t.max_v (max t.min_v !est))
    end
  end

let merge into src =
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.count > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end;
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets
