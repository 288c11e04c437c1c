module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

let seal ~counter ~seal write body =
  seal (W.to_string (fun w body -> W.u64 w counter; write w body) body)

let fresh ~slack ~counter bound =
  Int64.compare bound counter <= 0
  && Int64.compare bound (Int64.sub counter (Int64.of_int slack)) >= 0

type 'a verdict = Fresh | Restored of 'a | Refused of string

(* Each refusal names its sealer; the caller halts and raises it as an
   alert. *)
let check ~who ~slack ~counter ~unseal blob read =
  let refuse fmt = Printf.ksprintf (fun reason -> Refused (who ^ ": " ^ reason)) fmt in
  let parse r =
    let bound = R.u64 r in
    (bound, read r)
  in
  match Option.map unseal blob with
  | None when fresh ~slack ~counter 0L -> Fresh
  | None -> refuse "rollback detected — counter at %Ld but no sealed checkpoint offered" counter
  | Some (Error e) -> refuse "sealed checkpoint rejected: %s" e
  | Some (Ok image) -> (
    match R.parse parse image with
    | Error e -> refuse "sealed checkpoint malformed: %s" e
    | Ok (bound, body) when fresh ~slack ~counter bound -> Restored body
    | Ok (bound, _) ->
      refuse "rollback detected — sealed checkpoint bound to counter %Ld, platform counter is %Ld"
        bound counter)
