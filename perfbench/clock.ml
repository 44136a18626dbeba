(* Monotonic host clock in nanoseconds. The stub comes with bechamel;
   declaring the external here with an unboxed result keeps a clock read
   allocation-free, so timing a pipeline stage does not inflate the
   minor-heap words charged to it. *)
external now_raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_raw ())
