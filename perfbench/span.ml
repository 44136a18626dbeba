(* Spans recorded by the traced run around the benchmark's calls into
   each layer. They stay in memory and are written once, at the end.
   A span knows its parent (the span open when it began), its duration
   and the minor-heap words allocated inside it. [add] records an
   aggregate child: many short calls (one per simulated cycle, say)
   folded into one span with a call count, so a span's self time is
   still its duration minus the durations of its children. *)

type t = {
  id : int;
  name : string;
  parent : int;
  start_ns : int;
  mutable dur_ns : int;
  start_words : float;
  mutable words : float;
  mutable calls : int;
}

let on = ref false
let next_id = ref 0
let closed : t list ref = ref []
let stack : t list ref = ref []

let parent_id () = match !stack with s :: _ -> s.id | [] -> -1

let fresh name ~start_ns ~start_words =
  let id = !next_id in
  incr next_id;
  { id; name; parent = parent_id (); start_ns; dur_ns = 0; start_words;
    words = 0.0; calls = 1 }

let enter name =
  if !on then
    stack :=
      fresh name ~start_ns:(Clock.now ()) ~start_words:(Gc.minor_words ())
      :: !stack

let leave () =
  if !on then
    match !stack with
    | s :: rest ->
      s.dur_ns <- Clock.now () - s.start_ns;
      s.words <- Gc.minor_words () -. s.start_words;
      stack := rest;
      closed := s :: !closed
    | [] -> invalid_arg "Span.leave: no open span"

let with_span name f =
  enter name;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

(* An aggregate child of the innermost open span. *)
let add name ~ns ~words ~calls =
  if !on then begin
    let s = fresh name ~start_ns:0 ~start_words:0.0 in
    s.dur_ns <- ns;
    s.words <- words;
    s.calls <- calls;
    closed := s :: !closed
  end

let all () = List.rev !closed
