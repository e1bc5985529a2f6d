module W = struct
  type t = Buffer.t

  let create ?(size = 1024) () = Buffer.create size
  let length = Buffer.length
  let contents = Buffer.contents
  let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

  let u16 w v =
    u8 w v;
    u8 w (v lsr 8)

  let u32 w v =
    u16 w v;
    u16 w (v lsr 16)

  let u64 w v =
    u32 w v;
    u32 w (v lsr 32)

  let i32 w v = u32 w (v land 0xFFFFFFFF)
  let bytes w s = Buffer.add_string w s
  let zeros w n = for _ = 1 to n do Buffer.add_char w '\000' done

  let pad_to w n =
    let len = length w in
    if len < n then zeros w (n - len)

  let align w a =
    let len = length w in
    let rem = len mod a in
    if rem <> 0 then zeros w (a - rem)

  let uleb = Leb128.write_u
  let sleb = Leb128.write_s
end

module R = struct
  type t = { data : string; base : int; limit : int; mutable cur : int }

  exception Out_of_bounds of string

  let of_string s = { data = s; base = 0; limit = String.length s; cur = 0 }

  let sub s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      raise (Out_of_bounds "sub");
    { data = s; base = pos; limit = pos + len; cur = pos }

  let pos r = r.cur - r.base

  let seek r p =
    let abs = r.base + p in
    if abs < r.base || abs > r.limit then raise (Out_of_bounds "seek");
    r.cur <- abs

  let u8 r =
    if r.cur >= r.limit then raise (Out_of_bounds "u8");
    let v = Char.code r.data.[r.cur] in
    r.cur <- r.cur + 1;
    v

  let u16 r =
    let a = u8 r in
    let b = u8 r in
    a lor (b lsl 8)

  let u32 r =
    let a = u16 r in
    let b = u16 r in
    a lor (b lsl 16)

  let u64 r =
    let a = u32 r in
    let b = u32 r in
    if b lsr 30 <> 0 then raise (Out_of_bounds "u64: value exceeds int range");
    a lor (b lsl 32)

  let i32 r =
    let v = u32 r in
    if v >= 0x80000000 then v - 0x100000000 else v

  let bytes r n =
    if n < 0 || r.cur + n > r.limit then raise (Out_of_bounds "bytes");
    let s = String.sub r.data r.cur n in
    r.cur <- r.cur + n;
    s

  let uleb r =
    let v, next = Leb128.read_u r.data r.cur in
    if next > r.limit then raise (Out_of_bounds "uleb");
    r.cur <- next;
    v

  let sleb r =
    let v, next = Leb128.read_s r.data r.cur in
    if next > r.limit then raise (Out_of_bounds "sleb");
    r.cur <- next;
    v
end
