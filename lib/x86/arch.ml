type t = X86 | X64

let ptr_size = function X86 -> 4 | X64 -> 8
let to_string = function X86 -> "x86" | X64 -> "x86-64"
