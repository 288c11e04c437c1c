module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Trace_ctx = Splitbft_obs.Trace_ctx

type input =
  | In_net of Message.t
  | In_batch of Message.request list
  | In_suspect of Ids.view
  | In_recover of (string * string) list

type output =
  | Out_send of int * Message.t
  | Out_broadcast of Message.t
  | Out_persist of { tag : string; data : string }
  | Out_entered_view of Ids.view
  | Out_alert of string
  | Out_recovered

let input_into w input =
  match input with
  | In_net msg ->
    W.u8 w 1;
    W.nested w Message.encode_into msg
  | In_batch reqs ->
    W.u8 w 2;
    W.list w (fun w r -> W.nested w Message.encode_request_into r) reqs
  | In_suspect view ->
    W.u8 w 3;
    W.varint w view
  | In_recover records ->
    W.u8 w 4;
    W.list w
      (fun w (tag, data) ->
        W.bytes w tag;
        W.bytes w data)
      records

let decode_nested_message r =
  match Message.decode (R.bytes r) with
  | Ok msg -> msg
  | Error e -> raise (R.Error ("nested message: " ^ e))

let decode_nested_request r =
  match Message.decode_request (R.bytes r) with
  | Ok req -> req
  | Error e -> raise (R.Error ("nested request: " ^ e))

let decode_input_exact s =
  R.parse
    (fun r ->
      match R.u8 r with
      | 1 -> In_net (decode_nested_message r)
      | 2 -> In_batch (R.list r decode_nested_request)
      | 3 -> In_suspect (R.varint r)
      | 4 ->
        In_recover
          (R.list r (fun r ->
               let tag = R.bytes r in
               let data = R.bytes r in
               (tag, data)))
      | t -> raise (R.Error (Printf.sprintf "unknown input tag %d" t)))
    s

(* Trace contexts ride envelopes as the same backward-compatible trailer
   Message uses, with exact-parse fallback against magic-tail collisions
   in legacy payloads (cf. Message.decode_traced). *)

let encode_input ?ctx input = Trace_ctx.append ctx (W.to_string input_into input)

let decode_input s = Result.map fst (Message.decode_traced_with decode_input_exact s)

let encode_output_plain output =
  W.to_string
    (fun w output ->
      match output with
      | Out_send (dst, msg) ->
        W.u8 w 1;
        W.varint w dst;
        W.nested w Message.encode_into msg
      | Out_broadcast msg ->
        W.u8 w 2;
        W.nested w Message.encode_into msg
      | Out_persist { tag; data } ->
        W.u8 w 3;
        W.bytes w tag;
        W.bytes w data
      | Out_entered_view view ->
        W.u8 w 4;
        W.varint w view
      | Out_alert msg ->
        W.u8 w 5;
        W.bytes w msg
      | Out_recovered -> W.u8 w 6)
    output

let decode_output_exact s =
  R.parse
    (fun r ->
      match R.u8 r with
      | 1 ->
        let dst = R.varint r in
        Out_send (dst, decode_nested_message r)
      | 2 -> Out_broadcast (decode_nested_message r)
      | 3 ->
        let tag = R.bytes r in
        let data = R.bytes r in
        Out_persist { tag; data }
      | 4 -> Out_entered_view (R.varint r)
      | 5 -> Out_alert (R.bytes r)
      | 6 -> Out_recovered
      | t -> raise (R.Error (Printf.sprintf "unknown output tag %d" t)))
    s

let encode_output ?ctx output = Trace_ctx.append ctx (encode_output_plain output)

let decode_output_traced = Message.decode_traced_with decode_output_exact

let decode_output s = Result.map fst (decode_output_traced s)
