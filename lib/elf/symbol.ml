type kind = Func | Object | Notype | Section | File

type bind = Local | Global | Weak

type t = {
  name : string;
  value : int;
  size : int;
  kind : kind;
  bind : bind;
  section : string option;
}

let undef_func name =
  { name; value = 0; size = 0; kind = Func; bind = Global; section = None }

let kind_code = function
  | Notype -> Consts.stt_notype
  | Object -> Consts.stt_object
  | Func -> Consts.stt_func
  | Section -> Consts.stt_section
  | File -> Consts.stt_file

let bind_code = function
  | Local -> Consts.stb_local
  | Global -> Consts.stb_global
  | Weak -> Consts.stb_weak

let kind_of_code c =
  if c = Consts.stt_notype then Some Notype
  else if c = Consts.stt_object then Some Object
  else if c = Consts.stt_func then Some Func
  else if c = Consts.stt_section then Some Section
  else if c = Consts.stt_file then Some File
  else None

let bind_of_code c =
  if c = Consts.stb_local then Some Local
  else if c = Consts.stb_global then Some Global
  else if c = Consts.stb_weak then Some Weak
  else None
