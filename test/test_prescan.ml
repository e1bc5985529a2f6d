(* Differential tests for the table-driven scan core and the sweeps built
   on it.

   The retired byte-at-a-time decoder ([Oracle_decoder]) and the
   reference sweeps over it ([Oracle_sweep]) are the oracles; the
   production [Decoder.scan], the SWAR [anchor_offsets], and the
   production sweeps (the one loop, [Decoder.walk], over whole buffers
   and over regions of larger ones) must agree with them exactly — on
   every offset of real code, on random bytes, and on bytes biased
   toward the edges of the opcode tables, because the linear sweep's
   whole job is resynchronising through garbage. *)

module Arch = Cet_x86.Arch
module Decoder = Cet_x86.Decoder
module Linear = Cet_disasm.Linear
module Prescan = Cet_disasm.Prescan
module Substrate = Cet_disasm.Substrate

let check = Alcotest.check

let arches = [ ("x64", Arch.X64); ("x86", Arch.X86) ]

(* --- scan vs the oracle decoder ----------------------------------------- *)

(* The scratch view of an oracle kind: tag and, where the kind carries
   one, the payload [scratch_target] must hold. *)
let tag_payload (k : Decoder.kind) =
  match k with
  | Decoder.Other -> (Decoder.tag_other, None)
  | Endbr64 -> (Decoder.tag_endbr64, None)
  | Endbr32 -> (Decoder.tag_endbr32, None)
  | Call_direct t -> (Decoder.tag_call_direct, Some t)
  | Jmp_direct t -> (Decoder.tag_jmp_direct, Some t)
  | Jcc_direct t -> (Decoder.tag_jcc_direct, Some t)
  | Call_indirect { goto } -> (Decoder.tag_call_indirect, goto)
  | Jmp_indirect { goto; _ } -> (Decoder.tag_jmp_indirect, goto)
  | Ret -> (Decoder.tag_ret, None)
  | Halt -> (Decoder.tag_halt, None)
  | Addr_ref a -> (Decoder.tag_addr_ref, Some a)

(* Scan [code] at [off] reading nothing at or past [limit], and decode
   the same bytes with the oracle.  Success, address, length, tag and
   payload must agree; [scratch_ins] equality adds [has_target] (the
   [goto] option) and [notrack]. *)
let agrees_at s arch code ~limit ~base ~off =
  let scanned = Decoder.scan arch s code ~limit ~base ~off in
  let visible = if limit = String.length code then code else String.sub code 0 limit in
  match Oracle_decoder.decode arch visible ~base ~off with
  | Error _ -> not scanned
  | Ok ins ->
    let tag, payload = tag_payload ins.Oracle_decoder.kind in
    scanned
    && Decoder.scratch_addr s = ins.Oracle_decoder.addr
    && Decoder.scratch_len s = ins.Oracle_decoder.len
    && Decoder.scratch_tag s = tag
    && (match payload with None -> true | Some t -> Decoder.scratch_target s = t)
    && Decoder.scratch_ins s = ins

let scan_agrees arch code =
  let s = Decoder.scratch () in
  let n = String.length code in
  for off = 0 to n - 1 do
    if not (agrees_at s arch code ~limit:n ~base:0x401000 ~off) then
      QCheck.Test.fail_reportf "scan/oracle disagree at off %d in %S" off code
  done;
  true

let test_scan_vs_decode =
  List.map
    (fun (name, arch) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "scan = decode on random bytes (%s)" name)
        ~count:500
        QCheck.(string_of_size Gen.(int_range 0 96))
        (scan_agrees arch))
    arches

(* Every offset of every [.text] of the substrate test corpus (both
   compilers and arches, C++, inline data), each decoded as x86 and as
   x86-64. *)
let test_scan_vs_decode_corpus () =
  let s = Decoder.scratch () in
  List.iter
    (fun (name, (bytes, _)) ->
      match Cet_elf.Reader.find_section (Cet_elf.Reader.read bytes) ".text" with
      | None -> Alcotest.failf "%s: no .text" name
      | Some sec ->
        let code = sec.Cet_elf.Reader.data in
        let n = String.length code in
        List.iter
          (fun (aname, arch) ->
            for off = 0 to n - 1 do
              if not (agrees_at s arch code ~limit:n ~base:sec.Cet_elf.Reader.vaddr ~off) then
                Alcotest.failf "%s as %s: scan/oracle disagree at offset %d" name aname off
            done)
          arches)
    (Lazy.force Test_substrate.corpus)

(* Directed bytes covering the fiddlier decode arms: every prefix in
   front of every interesting opcode, plus truncations. *)
let directed_bytes =
  let prefixes = [ ""; "\x66"; "\x67"; "\xf3"; "\xf2"; "\x3e"; "\x48"; "\x66\x48" ] in
  let bodies =
    [
      "\x0f\x1e\xfa"; "\x0f\x1e\xfb"; "\x0f\x1e"; "\x0f\x1e\x00";
      "\xe8\x01\x02\x03\x04"; "\xe9\x01\x02\x03\x04"; "\xeb\x7f"; "\xeb\x80";
      "\x0f\x84\x10\x20\x30\x40"; "\x70\x05"; "\xe3\xfe";
      "\xff\x15\x01\x00\x00\x00"; "\xff\x25\x01\x00\x00\x00";
      "\xff\xd0"; "\xff\xe0"; "\xff\x2d\x01\x00\x00\x00";
      "\x8d\x05\x01\x00\x00\x00"; "\x8d\x04\x25\x01\x00\x00\x00";
      "\xb8\x01\x02\x03\x04"; "\x68\x01\x02\x03\x04";
      "\xc3"; "\xc2\x08\x00"; "\xf4"; "\x0f\x05"; "\x0f\x0b";
      "\xf6\xc0\x01"; "\xf7\xc0\x01\x02\x03\x04"; "\xfe\xc0"; "\xfe\xd0";
      "\x8b\x44\x24\x08"; "\x8b\x45\xfc"; "\x8b\x04\x25\x00\x10\x40\x00";
      "\x48\x66\x90"; "\x48\xf3\x0f\x1e\xfa";
      "\x48"; "\x66"; "\x0f"; "";
    ]
  in
  List.concat_map (fun p -> List.map (fun b -> p ^ b) bodies) prefixes

let test_scan_directed () =
  List.iter
    (fun (_, arch) ->
      List.iter
        (fun code ->
          ignore (scan_agrees arch code);
          (* And once more with every byte of trailing padding trimmed, to
             hit the truncation arms. *)
          for len = 0 to String.length code - 1 do
            ignore (scan_agrees arch (String.sub code 0 len))
          done)
        directed_bytes)
    arches

(* --- edge-biased instruction generator ---------------------------------- *)

let legacy_prefixes = "\x66\x67\xf2\xf3\xf0\x3e\x26\x2e\x36\x64\x65"

(* Instruction-shaped bytes that lean on the table edges: a prefix run
   (random, or exactly 14, 15 or 16 long; 67 only sometimes, since it
   rejects outright), a REX byte before and/or after it, an opcode (one-
   byte, 0F-escaped, or 0F 1E with FA/FB), and a ModRM/SIB operand in
   any mod/rm form with the SIB base-101 case, followed by random
   displacement/immediate bytes.  The limit then cuts the buffer
   anywhere, so every displacement form is also seen truncated. *)
let edge_gen =
  QCheck.Gen.(
    let prefix_byte ~with_67 =
      map (fun i -> legacy_prefixes.[i]) (int_range 0 (String.length legacy_prefixes - 1))
      >|= fun c -> if c = '\x67' && not with_67 then '\x66' else c
    in
    let prefix_run =
      bool >>= fun with_67 ->
      frequency [ (6, int_range 0 4); (1, int_range 5 13); (3, oneofl [ 14; 15; 16 ]) ]
      >>= fun n -> string_size ~gen:(prefix_byte ~with_67) (return n)
    in
    let rex = map (fun r -> String.make 1 (Char.chr (0x40 + r))) (int_range 0 15) in
    let opt g = frequency [ (1, g); (1, return "") ] in
    let opcode =
      frequency
        [
          (4, map (fun b -> String.make 1 (Char.chr b)) (int_range 0 255));
          (3, map (fun b -> "\x0f" ^ String.make 1 (Char.chr b)) (int_range 0 255));
          (2, map (fun m -> "\x0f\x1e" ^ String.make 1 (Char.chr m)) (oneofl [ 0xfa; 0xfb; 0xfa; 0x00; 0x05; 0x44 ]));
          (2, oneofl [ "\x8d"; "\xff"; "\xf6"; "\xf7"; "\xfe"; "\x69"; "\xc7"; "\x8b"; "\x81" ]);
        ]
    in
    let modrm =
      int_range 0 3 >>= fun md ->
      int_range 0 7 >>= fun reg ->
      oneofl [ 0; 1; 2; 3; 4; 4; 5; 5; 6; 7 ] >>= fun rm ->
      int_range 0 255 >>= fun sib_rest ->
      bool >|= fun sib_base5 ->
      let m = Char.chr ((md lsl 6) lor (reg lsl 3) lor rm) in
      if md <> 3 && rm = 4 then
        let sib = if sib_base5 then sib_rest land 0xF8 lor 5 else sib_rest in
        Printf.sprintf "%c%c" m (Char.chr sib)
      else String.make 1 m
    in
    opt rex >>= fun rex_before ->
    prefix_run >>= fun pfx ->
    opt rex >>= fun rex_after ->
    opcode >>= fun op ->
    opt modrm >>= fun mr ->
    string_size ~gen:char (int_range 0 10) >>= fun tail ->
    let code = rex_before ^ pfx ^ rex_after ^ op ^ mr ^ tail in
    let n = String.length code in
    frequency [ (1, return n); (2, int_range 0 n) ] >|= fun limit -> (code, limit))

let test_scan_edges =
  List.map
    (fun (name, arch) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "scan = decode on table edges (%s)" name)
        ~count:3000
        (QCheck.make ~print:(fun (c, l) -> Printf.sprintf "%S limit %d" c l) edge_gen)
        (fun (code, limit) ->
          let s = Decoder.scratch () in
          for off = 0 to limit - 1 do
            if not (agrees_at s arch code ~limit ~base:0x8048000 ~off) then
              QCheck.Test.fail_reportf "disagree at off %d" off
          done;
          (* off = limit, and past it: both must refuse. *)
          not (Decoder.scan arch s code ~limit ~base:0 ~off:limit)))
    arches

(* --- code generators ---------------------------------------------------- *)

let endbr arch =
  match arch with Arch.X64 -> "\xf3\x0f\x1e\xfa" | Arch.X86 -> "\xf3\x0f\x1e\xfb"

(* Random bytes with end-branch patterns planted at random positions, so
   the anchored sweep and the anchor scan have real work on every case. *)
let planted_gen arch =
  QCheck.Gen.(
    string_size ~gen:char (int_range 0 160) >>= fun raw ->
    list_size (int_range 0 6) (int_range 0 (max 0 (String.length raw - 1)))
    >|= fun spots ->
    let b = Bytes.of_string raw in
    List.iter
      (fun i ->
        let p = endbr arch in
        let len = min (String.length p) (Bytes.length b - i) in
        Bytes.blit_string p 0 b i len)
      spots;
    Bytes.to_string b)

let planted arch = QCheck.make ~print:(Printf.sprintf "%S") (planted_gen arch)

(* --- sweeps vs their references ----------------------------------------- *)

let sweep_equal name (a : Linear.t) (b : Oracle_sweep.t) code =
  match Oracle_sweep.stream_mismatch a b with
  | None -> true
  | Some why -> QCheck.Test.fail_reportf "%s: %s on %S" name why code

let test_sweep_vs_reference =
  List.map
    (fun (name, arch) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "sweep = reference sweep (%s)" name)
        ~count:300 (planted arch)
        (fun code ->
          sweep_equal "sweep"
            (Sweep.blob arch ~base:0x1000 code)
            (Oracle_sweep.sweep_reference arch ~base:0x1000 code)
            code))
    arches

(* The anchored walk keeps no stream: the substrate's anchored scan of
   the bytes as a [.text] at 0x1000 must hold the index arrays and facts
   of the anchored reference sweep. *)
let test_anchored_vs_reference =
  List.map
    (fun (name, arch) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "anchored scan = reference (%s)" name)
        ~count:300 (planted arch)
        (fun code ->
          let st = Substrate.of_bytes (Test_substrate.image_with_text arch code) in
          match
            Oracle_sweep.scan_mismatch
              (Substrate.indexes ~anchored:true st)
              (Substrate.facts ~anchored:true st)
              (Oracle_sweep.sweep_anchored_reference arch ~base:0x1000 code)
          with
          | None -> true
          | Some why -> QCheck.Test.fail_reportf "anchored scan: %s on %S" why code))
    arches

(* --- the decode loop on a sub-region -------------------------------------- *)

(* [Decoder.walk] over [len] bytes at [pos] of a larger buffer, plain or
   anchored: the harvest must be the oracle's index lists over the
   reference sweep of exactly those bytes, and, on the plain walk, which
   fills both sinks at once, the stream written through the domain's
   buffer must be that sweep.  The bytes around the region are random
   too, so a read outside it shows up as a mismatch. *)
let walk_agrees arch ~anchored buf ~pos ~len =
  let region = String.sub buf pos len in
  let vaddr = 0x401000 in
  let h = Decoder.harvest () in
  let anchors = if anchored then Some (Prescan.anchor_offsets arch region) else None in
  let w =
    Decoder.walk arch ~phase:"test.walk" ~anchors buf ~pos ~len ~vaddr
      ~stream:(not anchored) ~harvest:(Some h)
  in
  let r =
    (if anchored then Oracle_sweep.sweep_anchored_reference else Oracle_sweep.sweep_reference)
      arch ~base:vaddr region
  in
  let what = Printf.sprintf "anchored=%b pos %d len %d" anchored pos len in
  let same name got want =
    if got <> want then QCheck.Test.fail_reportf "%s: %s differs on %S" what name buf
  in
  same "kept count" w.Decoder.insns (Array.length r.Oracle_sweep.insns);
  same "resync events" w.Decoder.resync_errors r.Oracle_sweep.resync_errors;
  Option.iter
    (fun stream ->
      match
        Oracle_sweep.stream_mismatch
          (Linear.of_stream arch ~base:vaddr ~code:region stream
             ~resync_errors:w.Decoder.resync_errors)
          r
      with
      | None -> ()
      | Some why -> QCheck.Test.fail_reportf "%s: stream %s on %S" what why buf)
    w.Decoder.stream;
  let ints b = Array.to_list (Cet_util.Ibuf.contents b) in
  same "endbrs" (ints h.Decoder.eb) (Oracle_sweep.endbr_addrs r);
  let calls = Oracle_sweep.call_sites r and jumps = Oracle_sweep.jmp_refs r in
  same "call sites" (ints h.Decoder.cs) (List.map (fun (s, _, _) -> s) calls);
  same "call returns" (ints h.Decoder.cr) (List.map (fun (_, r, _) -> r) calls);
  same "call targets" (ints h.Decoder.ct) (List.map (fun (_, _, t) -> t) calls);
  same "jump sites" (ints h.Decoder.js) (List.map fst jumps);
  same "jump targets" (ints h.Decoder.jt) (List.map snd jumps)

let region_gen arch =
  QCheck.Gen.(
    planted_gen arch >>= fun buf ->
    let n = String.length buf in
    int_range 0 n >>= fun pos ->
    int_range 0 (n - pos) >|= fun len -> (buf, pos, len))

let test_walk_region_vs_reference =
  List.map
    (fun (name, arch) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "walk on a sub-region = reference, both sinks (%s)" name)
        ~count:300
        (QCheck.make
           ~print:(fun (b, pos, len) -> Printf.sprintf "%S pos %d len %d" b pos len)
           (region_gen arch))
        (fun (buf, pos, len) ->
          walk_agrees arch ~anchored:false buf ~pos ~len;
          walk_agrees arch ~anchored:true buf ~pos ~len;
          true))
    arches

(* The walk checks its region once, before it reads a byte, because the
   core it inlines reads unchecked: a negative [pos] would read before
   the buffer, a [pos + len] past its end (overflowing included) after
   it.  Empty regions at either end are fine. *)
let test_walk_region_checked () =
  let buf = String.make 64 '\x90' in
  let n = String.length buf in
  List.iter
    (fun (pos, len) ->
      let h = Decoder.harvest () in
      (match
         Decoder.walk Arch.X64 ~phase:"test.walk" ~anchors:None buf ~pos ~len ~vaddr:0
           ~stream:true ~harvest:(Some h)
       with
      | _ -> Alcotest.failf "pos %d len %d: walked" pos len
      | exception Invalid_argument _ -> ());
      check Alcotest.int (Printf.sprintf "pos %d len %d: nothing harvested" pos len) 0
        h.Decoder.eb.Cet_util.Ibuf.len)
    [ (-1, n); (-1, 0); (0, -1); (1, n); (n, 1); (n + 1, 0); (1, max_int); (max_int, 1) ];
  List.iter
    (fun (pos, len) ->
      let w =
        Decoder.walk Arch.X64 ~phase:"test.walk" ~anchors:None buf ~pos ~len ~vaddr:0
          ~stream:false ~harvest:None
      in
      check
        Alcotest.(pair int int)
        (Printf.sprintf "pos %d len %d" pos len)
        (0, len)
        (w.Decoder.resync_errors, w.Decoder.insns))
    [ (0, 0); (n, 0); (0, n); (n - 1, 1) ]

(* A walk with neither sink allocates its scratch record and its result
   record (14 words), whatever the region: a word per instruction from a
   boxed local or a closure in the fused loop would show at once.
   Measured over the largest [.text] of the substrate corpus (114,672
   instructions) and over its first eighth, plain and anchored (the
   anchors are computed outside the count). *)
let test_walk_allocation_fixed () =
  let bytes, _ = List.assoc "gcc-x64-cpp" (Lazy.force Test_substrate.corpus) in
  let reader = Cet_elf.Reader.read bytes in
  let arch = Cet_elf.Reader.arch reader in
  let code = (Option.get (Cet_elf.Reader.find_section reader ".text")).Cet_elf.Reader.data in
  let n = String.length code in
  let walk anchors len () =
    ignore
      (Sys.opaque_identity
         (Decoder.walk arch ~phase:"test.walk" ~anchors code ~pos:0 ~len ~vaddr:0 ~stream:false
            ~harvest:None))
  in
  List.iter
    (fun anchored ->
      List.iter
        (fun len ->
          let anchors =
            if anchored then Some (Prescan.anchor_offsets arch (String.sub code 0 len)) else None
          in
          walk anchors len ();
          let before = Gc.minor_words () in
          walk anchors len ();
          let words = Gc.minor_words () -. before in
          if words > 16.0 then
            Alcotest.failf "walk (anchored=%b) over %d bytes allocates %.0f minor words (budget 16)"
              anchored len words)
        [ n; n / 8 ])
    [ false; true ]

(* --- the stream buffer ------------------------------------------------------ *)

(* The [.text] of a substrate-corpus binary: its architecture, address
   and bytes. *)
let corpus_text name =
  let bytes, _ = List.assoc name (Lazy.force Test_substrate.corpus) in
  let reader = Cet_elf.Reader.read bytes in
  let text = Option.get (Cet_elf.Reader.find_section reader ".text") in
  (Cet_elf.Reader.arch reader, text.Cet_elf.Reader.vaddr, text.Cet_elf.Reader.data)

let expect_reference tag arch ~base code (sw : Linear.t) =
  match Oracle_sweep.stream_mismatch sw (Oracle_sweep.sweep_reference arch ~base code) with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s" tag why

(* On a fresh domain, whose buffer starts empty: an empty region, then
   regions longer than any the domain streamed before, then a short one
   again.  Every stream must be the reference sweep of its bytes, checked
   after all the walks, so a stream that aliased the buffer the later
   walks rewrote would show.  The longest region, 3 MiB of undecodable
   [67] bytes before the code, outgrows the domain's first buffer; its
   stream must be the code's own, one resync event more. *)
let test_buffer_regions () =
  let arch, base, text = corpus_text "gcc-x64" in
  let lens = [ 0; 0; 100; 5000; String.length text; 100 ] in
  let junk = String.make (3 lsl 20) '\x67' in
  let sweeps, padded, short =
    Domain.join
      (Domain.spawn (fun () ->
           let sweeps =
             List.map (fun len -> Sweep.blob arch ~base (String.sub text 0 len)) lens
           in
           let padded = Sweep.blob arch ~base:(base - String.length junk) (junk ^ text) in
           (sweeps, padded, Sweep.blob arch ~base (String.sub text 0 100))))
  in
  List.iter2
    (fun len sw ->
      check Alcotest.bool (Printf.sprintf "%d bytes: no more instructions than bytes" len) true
        (Linear.length sw <= len);
      expect_reference (Printf.sprintf "%d bytes" len) arch ~base (String.sub text 0 len) sw)
    lens sweeps;
  let whole = List.nth sweeps 4 in
  check Alcotest.bool "after 3 MiB of junk: the code's instructions" true
    (padded.Linear.addrs = whole.Linear.addrs
    && padded.Linear.targets = whole.Linear.targets
    && padded.Linear.lens = whole.Linear.lens
    && padded.Linear.tags = whole.Linear.tags);
  check Alcotest.int "after 3 MiB of junk: one more resync" (whole.Linear.resync_errors + 1)
    padded.Linear.resync_errors;
  expect_reference "100 bytes after the longest region" arch ~base (String.sub text 0 100) short;
  let w =
    Decoder.walk arch ~phase:"test.walk" ~anchors:None text ~pos:0 ~len:0 ~vaddr:base
      ~stream:true ~harvest:None
  in
  check Alcotest.int "empty region: no instruction" 0 w.Decoder.insns;
  check Alcotest.int "empty region: empty stream" 0
    (Array.length (Option.get w.Decoder.stream).Decoder.addrs)

(* Two domains sweeping different binaries at once, each several times,
   must each get its one-domain sweep. *)
let test_buffer_two_domains () =
  let texts = [ corpus_text "gcc-x64"; corpus_text "clang-x86" ] in
  let sweep (arch, base, code) = Sweep.blob arch ~base code in
  let alone = List.map sweep texts in
  let domains =
    List.map (fun t -> Domain.spawn (fun () -> List.init 3 (fun _ -> sweep t))) texts
  in
  List.iteri
    (fun i (want, got) ->
      List.iteri
        (fun k sw ->
          check Alcotest.bool (Printf.sprintf "binary %d, sweep %d = one-domain sweep" i k) true
            (sw = want))
        got)
    (List.combine alone (List.map Domain.join domains))

(* A sweep that the deadline aborts leaves its buffer half written; the
   next sweep on that domain must not see it. *)
let test_buffer_after_deadline () =
  let arch, base, text = corpus_text "gcc-x64" in
  let nops = String.make 65536 '\x90' in
  let expired, clean =
    Domain.join
      (Domain.spawn (fun () ->
           let expired =
             match
               Cet_util.Deadline.with_ ~seconds:1e-9 (fun () -> Sweep.blob Arch.X64 nops)
             with
             | _ -> false
             | exception Cet_util.Deadline.Expired _ -> true
           in
           (expired, Sweep.blob arch ~base text)))
  in
  check Alcotest.bool "the first sweep expires" true expired;
  expect_reference "the sweep after it" arch ~base text clean

(* --- SWAR anchor scan vs the per-byte oracle ----------------------------- *)

let test_anchors_vs_naive =
  List.map
    (fun (name, arch) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "SWAR anchor_offsets = naive (%s)" name)
        ~count:500 (planted arch)
        (fun code ->
          Prescan.anchor_offsets arch code = Oracle_sweep.anchor_offsets_naive arch code))
    arches

(* Directed anchor placements: offset 0, every phase relative to the
   8-byte word grid (straddling included), and flush against the n-4
   tail — with sub-word and empty strings for the edges. *)
let test_anchors_directed () =
  List.iter
    (fun (aname, arch) ->
      let p = endbr arch in
      let case code =
        check
          Alcotest.(list int)
          (Printf.sprintf "%s anchors in %S" aname code)
          (Array.to_list (Oracle_sweep.anchor_offsets_naive arch code))
          (Array.to_list (Prescan.anchor_offsets arch code))
      in
      case "";
      case "\x90";
      case p;
      case (String.sub p 0 3);
      (* every alignment of the pattern within/between words *)
      for pad = 0 to 17 do
        case (String.make pad '\x90' ^ p);
        case (String.make pad '\x90' ^ p ^ String.make 3 '\x90');
        (* flush at the n-4 tail *)
        case (String.make pad '\x00' ^ p)
      done;
      (* back-to-back and overlapping-prefix runs *)
      case (p ^ p ^ p);
      case ("\xf3\xf3" ^ p);
      case (String.concat "" (List.init 5 (fun i -> String.make i '\xf3' ^ p)));
      (* the wrong-arch suffix must not match *)
      case (endbr Arch.X64 ^ endbr Arch.X86))
    arches

(* --- allocation budget --------------------------------------------------- *)

(* [anchor_offsets] allocates only its result array (plus doubling
   steps), so its budget is headroom far under one word per 8-byte code
   word: a boxed-Int64 regression in the loop body (8+ words per
   iteration) trips it immediately.  A successful [scan] allocates
   nothing at all: the whole loop over the buffer must cost zero minor
   words. *)
let test_prescan_allocation_budget () =
  let code =
    String.concat ""
      (List.init 4096 (fun i ->
           if i mod 64 = 0 then "\xf3\x0f\x1e\xfa" else "\x90\x31\xc0\x50"))
  in
  let measure f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  let n_words = float_of_int (String.length code / 8) in
  let anchor_words = measure (fun () -> Prescan.anchor_offsets Arch.X64 code) in
  if anchor_words /. n_words > 1.0 then
    Alcotest.failf "anchor_offsets allocates %.2f minor words per code word"
      (anchor_words /. n_words);
  let s = Decoder.scratch () in
  let n = String.length code in
  let scan_loop () =
    let off = ref 0 in
    while !off < n do
      if Decoder.scan Arch.X64 s code ~limit:n ~base:0 ~off:!off then
        off := !off + Decoder.scratch_len s
      else incr off
    done
  in
  let scan_words = measure scan_loop in
  if scan_words > 0.0 then
    Alcotest.failf "the scan loop allocates %.0f minor words" scan_words

let suite =
  [
    ( "prescan",
      List.map QCheck_alcotest.to_alcotest
        (test_scan_vs_decode @ test_sweep_vs_reference @ test_anchored_vs_reference
       @ test_walk_region_vs_reference @ test_anchors_vs_naive @ test_scan_edges)
      @ [
          Alcotest.test_case "scan = decode directed" `Quick test_scan_directed;
          Alcotest.test_case "scan = decode on corpus offsets" `Quick
            test_scan_vs_decode_corpus;
          Alcotest.test_case "anchor offsets directed" `Quick test_anchors_directed;
          Alcotest.test_case "prescan allocation budget" `Quick
            test_prescan_allocation_budget;
          Alcotest.test_case "walk refuses regions outside its buffer" `Quick
            test_walk_region_checked;
          Alcotest.test_case "walk with no sink allocates a fixed few words" `Quick
            test_walk_allocation_fixed;
          Alcotest.test_case "stream buffer: empty, growing and shrinking regions" `Quick
            test_buffer_regions;
          Alcotest.test_case "stream buffer: two domains at once" `Quick
            test_buffer_two_domains;
          Alcotest.test_case "stream buffer: a sweep after an expired one" `Quick
            test_buffer_after_deadline;
        ] );
  ]
