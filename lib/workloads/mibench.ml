(* Field order: see Spec.t.  The [make] helper centralises defaults so
   each benchmark states only what distinguishes it. *)
let make ~name ~seed ~funcs ~blocks:(bmin, bmax) ?(instrs = (3, 9))
    ?(loop_depth = 2) ?(trips = 12) ?(hot_frac = 0.25) ?(hot_bias = 0.85)
    ?(taken = 0.45) ?(mem = 0.25) ?(mac = 0.05) ?(ws = 64 * 1024)
    ?(large = 120_000) () =
  let imin, imax = instrs in
  {
    Spec.name;
    seed;
    num_funcs = funcs;
    blocks_per_func_min = bmin;
    blocks_per_func_max = bmax;
    instrs_per_block_min = imin;
    instrs_per_block_max = imax;
    max_loop_depth = loop_depth;
    avg_loop_trips = trips;
    hot_func_fraction = hot_frac;
    hot_call_bias = hot_bias;
    if_taken_bias = taken;
    mem_ratio = mem;
    mac_ratio = mac;
    data_working_set_bytes = ws;
    trace_blocks_large = large;
    trace_blocks_small = large;
  }

(* Automotive / telecom kernels: tiny hot loops, high trip counts. *)
let bitcount =
  make ~name:"bitcount" ~seed:101 ~funcs:14 ~blocks:(3, 8) ~instrs:(3, 7)
    ~loop_depth:1 ~trips:40 ~hot_frac:0.5 ~mem:0.10 ~mac:0.0 ~ws:(4 * 1024) ()

let susan name seed mac =
  (* Image kernels: nested pixel loops over a medium code base. *)
  make ~name ~seed ~funcs:56 ~blocks:(8, 20) ~loop_depth:3 ~trips:18
    ~hot_frac:0.35 ~mem:0.30 ~mac ~ws:(128 * 1024) ()

let susan_c = susan "susan_c" 102 0.08
let susan_e = susan "susan_e" 103 0.10
let susan_s = susan "susan_s" 104 0.12

let jpeg name seed =
  (* DCT codecs: larger code, moderate loops, MAC heavy. *)
  make ~name ~seed ~funcs:170 ~blocks:(6, 16) ~loop_depth:2 ~trips:10
    ~hot_frac:0.35 ~hot_bias:0.82 ~mem:0.28 ~mac:0.12 ~ws:(256 * 1024) ()

let cjpeg = jpeg "cjpeg" 105
let djpeg = jpeg "djpeg" 106

let tiff name seed =
  (* libtiff tools: big library code, shallow loops, cold error paths. *)
  make ~name ~seed ~funcs:240 ~blocks:(6, 14) ~loop_depth:2 ~trips:8
    ~hot_frac:0.42 ~hot_bias:0.80 ~mem:0.30 ~ws:(512 * 1024) ()

let tiff2bw = tiff "tiff2bw" 107
let tiff2rgba = tiff "tiff2rgba" 108
let tiffdither = tiff "tiffdither" 109
let tiffmedian = tiff "tiffmedian" 110

let patricia =
  (* Trie lookups: pointer chasing, branchy, poor data locality. *)
  make ~name:"patricia" ~seed:111 ~funcs:40 ~blocks:(5, 12) ~instrs:(3, 7)
    ~loop_depth:2 ~trips:6 ~hot_frac:0.40 ~taken:0.5 ~mem:0.38 ~mac:0.0
    ~ws:(1024 * 1024) ()

let ispell =
  (* Large code footprint, the I-cache stressor of the suite. *)
  make ~name:"ispell" ~seed:112 ~funcs:320 ~blocks:(8, 18) ~loop_depth:2
    ~trips:7 ~hot_frac:0.62 ~hot_bias:0.75 ~taken:0.5 ~mem:0.30
    ~ws:(768 * 1024) ~large:150_000 ()

let rsynth =
  make ~name:"rsynth" ~seed:113 ~funcs:260 ~blocks:(8, 18) ~loop_depth:2
    ~trips:9 ~hot_frac:0.55 ~hot_bias:0.78 ~mem:0.26 ~mac:0.15
    ~ws:(384 * 1024) ~large:150_000 ()

let blowfish name seed =
  (* Feistel rounds: one dominant unrolled loop. *)
  make ~name ~seed ~funcs:22 ~blocks:(6, 12) ~instrs:(5, 11) ~loop_depth:1
    ~trips:30 ~hot_frac:0.35 ~mem:0.22 ~mac:0.0 ~ws:(8 * 1024) ()

let blowfish_d = blowfish "blowfish_d" 114
let blowfish_e = blowfish "blowfish_e" 115

let rijndael name seed =
  (* AES with unrolled rounds: big straight-line blocks. *)
  make ~name ~seed ~funcs:28 ~blocks:(8, 16) ~instrs:(6, 14) ~loop_depth:1
    ~trips:24 ~hot_frac:0.3 ~mem:0.26 ~mac:0.0 ~ws:(16 * 1024) ()

let rijndael_d = rijndael "rijndael_d" 116
let rijndael_e = rijndael "rijndael_e" 117

let sha =
  make ~name:"sha" ~seed:118 ~funcs:15 ~blocks:(6, 12) ~instrs:(5, 10)
    ~loop_depth:1 ~trips:35 ~hot_frac:0.4 ~mem:0.18 ~mac:0.0 ~ws:(8 * 1024) ()

let adpcm name seed =
  (* ADPCM codec: a single tiny decode/encode loop. *)
  make ~name ~seed ~funcs:8 ~blocks:(4, 8) ~instrs:(3, 8) ~loop_depth:1
    ~trips:60 ~hot_frac:0.5 ~mem:0.20 ~mac:0.05 ~ws:(4 * 1024) ()

let rawcaudio = adpcm "rawcaudio" 119
let rawdaudio = adpcm "rawdaudio" 120

let crc =
  make ~name:"crc" ~seed:121 ~funcs:6 ~blocks:(3, 6) ~instrs:(3, 6)
    ~loop_depth:1 ~trips:80 ~hot_frac:0.5 ~mem:0.15 ~mac:0.0 ~ws:(2 * 1024) ()

let fft name seed =
  (* Butterfly loops: MAC dominated, medium code. *)
  make ~name ~seed ~funcs:36 ~blocks:(6, 14) ~loop_depth:3 ~trips:14
    ~hot_frac:0.40 ~mem:0.24 ~mac:0.20 ~ws:(64 * 1024) ()

let fft_fwd = fft "fft" 122
let fft_inv = fft "fft_i" 123

let all =
  [
    bitcount;
    susan_c;
    susan_e;
    susan_s;
    cjpeg;
    djpeg;
    tiff2bw;
    tiff2rgba;
    tiffdither;
    tiffmedian;
    patricia;
    ispell;
    rsynth;
    blowfish_d;
    blowfish_e;
    rijndael_d;
    rijndael_e;
    sha;
    rawcaudio;
    rawdaudio;
    crc;
    fft_fwd;
    fft_inv;
  ]

(* Loop-dominated long-trip-count variants: the steady-state
   fast-forward showcase.  Pure-compute kernels (mem_ratio 0) with
   chunky straight-line bodies inside a single tight loop level — the
   trace is long periodic regions whose iterations touch no data
   stream, so the fast-forward engine converges after a couple of
   recorded iterations and skips the rest.  [mem:0.0] matters: any
   data access moves the stream cursors (or draws from the RNG) every
   iteration and vetoes fast-forward; these variants model
   table-free, register-resident inner loops. *)
let loop_variant ~name ~seed ~funcs ~blocks ~instrs ~taken =
  make ~name ~seed ~funcs ~blocks ~instrs ~loop_depth:1 ~trips:60
    ~hot_frac:0.5 ~taken ~mem:0.0 ~mac:0.0 ~ws:64 ~large:600_000 ()

(* In-body if-diamonds draw a fresh side every visit, so a diamond in
   a hot loop makes almost no two consecutive iterations trace
   identically, defeating period detection.  [crc_loop] keeps a
   budget big enough for occasional diamonds (a mixed shape);
   [adpcm_loop] and [sha_loop] use a 3-4 block budget, below the
   5-block minimum the generator needs to emit an if, modelling the
   branch-free unrolled/predicated kernels where steady-state
   fast-forward shines. *)
let crc_loop =
  loop_variant ~name:"crc_loop" ~seed:221 ~funcs:6 ~blocks:(3, 6)
    ~instrs:(20, 32) ~taken:0.5

let adpcm_loop =
  loop_variant ~name:"adpcm_loop" ~seed:222 ~funcs:6 ~blocks:(3, 4)
    ~instrs:(16, 28) ~taken:0.1

let sha_loop =
  loop_variant ~name:"sha_loop" ~seed:223 ~funcs:6 ~blocks:(3, 4)
    ~instrs:(48, 72) ~taken:0.9

let loops = [ crc_loop; adpcm_loop; sha_loop ]
let loop_names = List.map (fun s -> s.Spec.name) loops
let names = List.map (fun s -> s.Spec.name) all

let find name = List.find (fun s -> s.Spec.name = name) (all @ loops)

let select = function
  | "all" -> Ok names
  | list ->
      List.fold_right
        (fun name acc ->
          let name = String.trim name in
          match (find name, acc) with
          | exception Not_found ->
              Error (Printf.sprintf "unknown benchmark %S" name)
          | _, Ok names -> Ok (name :: names)
          | _, (Error _ as e) -> e)
        (String.split_on_char ',' list)
        (Ok [])

let tiny =
  make ~name:"tiny" ~seed:7 ~funcs:5 ~blocks:(3, 6) ~instrs:(3, 6)
    ~loop_depth:1 ~trips:5 ~hot_frac:0.5 ~large:2_000 ()
