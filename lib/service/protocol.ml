type request =
  | Query of string
  | Append of { csv : string; epoch : int option }
  | Delete of { ids : int list; epoch : int option }
  | Lease of { epoch : int; ttl_ms : int }
  | Assign of string
  | Sketch of string
  | Refine of string
  | Fingerprint
  | Stats
  | Ping
  | Quit

type error_code =
  | Rejected
  | Deadline
  | Infeasible
  | Degraded
  | Failed
  | Fenced
  | Parse_error
  | Analysis_error
  | Data_error
  | Internal

type response = Resp_ok of string | Resp_err of error_code * string

exception Protocol_error of string

let code_name = function
  | Rejected -> "rejected"
  | Deadline -> "deadline"
  | Infeasible -> "infeasible"
  | Degraded -> "degraded"
  | Failed -> "failed"
  | Fenced -> "fenced"
  | Parse_error -> "parse"
  | Analysis_error -> "analysis"
  | Data_error -> "data"
  | Internal -> "internal"

let code_of_name = function
  | "rejected" -> Some Rejected
  | "deadline" -> Some Deadline
  | "infeasible" -> Some Infeasible
  | "degraded" -> Some Degraded
  | "failed" -> Some Failed
  | "fenced" -> Some Fenced
  | "parse" -> Some Parse_error
  | "analysis" -> Some Analysis_error
  | "data" -> Some Data_error
  | "internal" -> Some Internal
  | _ -> None

let exit_code = function
  | Infeasible -> 1
  | Deadline | Failed | Internal -> 2
  | Data_error -> 3
  | Parse_error -> 4
  | Analysis_error -> 5
  | Rejected -> 7
  | Degraded -> 8
  | Fenced -> 9

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

(* A body cap keeps a corrupt length prefix from allocating the moon. *)
let max_body = 64 * 1024 * 1024

let write_body oc body =
  output_string oc body;
  output_char oc '\n';
  flush oc

let read_len what s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= max_body -> n
  | _ -> raise (Protocol_error (Printf.sprintf "%s: bad length %S" what s))

(* The optional trailing token of an APPEND/DELETE request line: the
   membership epoch the write was issued under (absent on unfenced
   writes, so pre-epoch clients keep working verbatim). *)
let read_epoch what = function
  | [] -> None
  | [ e ] -> (
    match int_of_string_opt e with
    | Some n when n >= 0 -> Some n
    | _ -> raise (Protocol_error (Printf.sprintf "%s: bad epoch %S" what e)))
  | _ -> raise (Protocol_error (Printf.sprintf "%s: bad request line" what))

let read_body ic len =
  let body = really_input_string ic len in
  (match input_char ic with
  | '\n' -> ()
  | c ->
    raise (Protocol_error (Printf.sprintf "missing frame terminator, got %C" c)));
  body

let write_request oc = function
  | Query q ->
    Printf.fprintf oc "QUERY %d\n" (String.length q);
    write_body oc q
  | Append { csv; epoch } ->
    (match epoch with
    | None -> Printf.fprintf oc "APPEND %d\n" (String.length csv)
    | Some e -> Printf.fprintf oc "APPEND %d %d\n" (String.length csv) e);
    write_body oc csv
  | Delete { ids; epoch } ->
    let body = String.concat " " (List.map string_of_int ids) in
    (match epoch with
    | None -> Printf.fprintf oc "DELETE %d\n" (String.length body)
    | Some e -> Printf.fprintf oc "DELETE %d %d\n" (String.length body) e);
    write_body oc body
  | Lease { epoch; ttl_ms } ->
    Printf.fprintf oc "LEASE %d %d\n" epoch ttl_ms;
    flush oc
  | Assign body ->
    Printf.fprintf oc "ASSIGN %d\n" (String.length body);
    write_body oc body
  | Sketch body ->
    Printf.fprintf oc "SKETCH %d\n" (String.length body);
    write_body oc body
  | Refine body ->
    Printf.fprintf oc "REFINE %d\n" (String.length body);
    write_body oc body
  | Fingerprint ->
    output_string oc "FPRINT\n";
    flush oc
  | Stats ->
    output_string oc "STATS\n";
    flush oc
  | Ping ->
    output_string oc "PING\n";
    flush oc
  | Quit ->
    output_string oc "QUIT\n";
    flush oc

let read_request ic =
  match input_line ic with
  | exception End_of_file -> None
  | line -> (
    match String.split_on_char ' ' (String.trim line) with
    | [ "QUERY"; len ] ->
      Some (Query (read_body ic (read_len "QUERY" len)))
    | "APPEND" :: len :: epoch ->
      let epoch = read_epoch "APPEND" epoch in
      Some (Append { csv = read_body ic (read_len "APPEND" len); epoch })
    | "DELETE" :: len :: epoch ->
      let epoch = read_epoch "DELETE" epoch in
      let body = read_body ic (read_len "DELETE" len) in
      let ids =
        String.split_on_char ' ' (String.trim body)
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               match int_of_string_opt s with
               | Some id -> id
               | None ->
                 raise
                   (Protocol_error
                      (Printf.sprintf "DELETE: bad row id %S" s)))
      in
      Some (Delete { ids; epoch })
    | [ "LEASE"; epoch; ttl_ms ] -> (
      match (int_of_string_opt epoch, int_of_string_opt ttl_ms) with
      | Some e, Some ttl when e >= 0 && ttl >= 0 ->
        Some (Lease { epoch = e; ttl_ms = ttl })
      | _ ->
        raise (Protocol_error (Printf.sprintf "bad request line %S" line)))
    | [ "ASSIGN"; len ] ->
      Some (Assign (read_body ic (read_len "ASSIGN" len)))
    | [ "SKETCH"; len ] ->
      Some (Sketch (read_body ic (read_len "SKETCH" len)))
    | [ "REFINE"; len ] ->
      Some (Refine (read_body ic (read_len "REFINE" len)))
    | [ "FPRINT" ] -> Some Fingerprint
    | [ "STATS" ] -> Some Stats
    | [ "PING" ] -> Some Ping
    | [ "QUIT" ] -> Some Quit
    | _ -> raise (Protocol_error (Printf.sprintf "bad request line %S" line)))

let write_response oc = function
  | Resp_ok body ->
    Printf.fprintf oc "OK %d\n" (String.length body);
    write_body oc body
  | Resp_err (code, body) ->
    Printf.fprintf oc "ERR %s %d\n" (code_name code) (String.length body);
    write_body oc body

let read_response ic =
  match input_line ic with
  | exception End_of_file -> raise (Protocol_error "connection closed")
  | line -> (
    match String.split_on_char ' ' (String.trim line) with
    | [ "OK"; len ] -> Resp_ok (read_body ic (read_len "OK" len))
    | [ "ERR"; code; len ] -> (
      match code_of_name code with
      | Some c -> Resp_err (c, read_body ic (read_len "ERR" len))
      | None ->
        raise (Protocol_error (Printf.sprintf "unknown error code %S" code)))
    | _ -> raise (Protocol_error (Printf.sprintf "bad response line %S" line)))

(* ------------------------------------------------------------------ *)
(* Query result bodies                                                *)
(* ------------------------------------------------------------------ *)

(* The wall line sits outside the cacheable prefix conceptually, but
   keeping the whole body one string makes the result cache trivial;
   the cached copy simply reports the original run's wall time, which
   is itself informative (it is the time the cache is saving). *)
let render_result ~status_line ~wall ~csv =
  Printf.sprintf "status %s\nwall %.6f\n%s" status_line wall csv

let parse_result body =
  match String.index_opt body '\n' with
  | None -> Error "result body: missing status line"
  | Some i -> (
    let status_line = String.sub body 0 i in
    let rest = String.sub body (i + 1) (String.length body - i - 1) in
    match String.index_opt rest '\n' with
    | None -> Error "result body: missing wall line"
    | Some j ->
      let wall_line = String.sub rest 0 j in
      let csv = String.sub rest (j + 1) (String.length rest - j - 1) in
      if not (String.length status_line >= 7
              && String.sub status_line 0 7 = "status ")
      then Error "result body: bad status line"
      else
        let status =
          String.sub status_line 7 (String.length status_line - 7)
        in
        match String.split_on_char ' ' wall_line with
        | [ "wall"; w ] -> (
          match float_of_string_opt w with
          | Some wall -> Ok (status, wall, csv)
          | None -> Error "result body: bad wall value")
        | _ -> Error "result body: bad wall line")

(* ------------------------------------------------------------------ *)
(* Shard verb bodies                                                  *)
(* ------------------------------------------------------------------ *)

let bad what s =
  raise (Protocol_error (Printf.sprintf "%s: bad field %S" what s))

let int_field what s =
  match int_of_string_opt s with Some n -> n | None -> bad what s

let nonempty_lines body =
  String.split_on_char '\n' body |> List.filter (fun l -> String.trim l <> "")

let render_assign groups =
  groups
  |> List.map (fun (gid, ids) ->
         let ids = Array.to_list ids |> List.map string_of_int in
         String.concat " " (string_of_int gid :: ids))
  |> String.concat "\n"

let parse_assign body =
  nonempty_lines body
  |> List.map (fun line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         with
         | gid :: ids ->
           ( int_field "ASSIGN gid" gid,
             Array.of_list (List.map (int_field "ASSIGN id") ids) )
         | [] -> bad "ASSIGN" line)

let render_counts counts =
  counts
  |> List.map (fun (gid, n) -> Printf.sprintf "%d %d" gid n)
  |> String.concat "\n"

let parse_counts body =
  nonempty_lines body
  |> List.map (fun line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         with
         | [ gid; n ] -> (int_field "counts gid" gid, int_field "counts n" n)
         | _ -> bad "counts" line)

(* Hex float literals round-trip exactly, so the shard's refine ILP sees
   bit-identical offsets to the ones the coordinator computed. *)
let render_refine ~gid ~budget_ms ~offsets ~query =
  let offs =
    Array.to_list offsets
    |> List.map (fun v -> Printf.sprintf "%h" v)
    |> String.concat " "
  in
  Printf.sprintf "%d %d\n%s\n%s" gid budget_ms offs query

let parse_refine body =
  match String.index_opt body '\n' with
  | None -> bad "REFINE" body
  | Some i -> (
    let head = String.sub body 0 i in
    let rest = String.sub body (i + 1) (String.length body - i - 1) in
    match String.index_opt rest '\n' with
    | None -> bad "REFINE" rest
    | Some j ->
      let offs_line = String.sub rest 0 j in
      let query = String.sub rest (j + 1) (String.length rest - j - 1) in
      let gid, budget_ms =
        match
          String.split_on_char ' ' (String.trim head)
          |> List.filter (fun s -> s <> "")
        with
        | [ gid; ms ] ->
          let budget_ms = int_field "REFINE budget" ms in
          if budget_ms <= 0 then bad "REFINE budget" ms;
          (int_field "REFINE gid" gid, budget_ms)
        | _ -> bad "REFINE header" head
      in
      let offsets =
        String.split_on_char ' ' (String.trim offs_line)
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               match float_of_string_opt s with
               | Some v when Float.is_finite v -> v
               | _ -> bad "REFINE offset" s)
        |> Array.of_list
      in
      (gid, budget_ms, offsets, query))

type refine_result =
  | Refine_feasible of (int * int) list
  | Refine_infeasible
  | Refine_failed of string

let render_refine_result = function
  | Refine_infeasible -> "infeasible"
  | Refine_failed msg -> "failed " ^ msg
  | Refine_feasible entries ->
    let entries =
      entries
      |> List.map (fun (row, cnt) -> Printf.sprintf "%d:%d" row cnt)
      |> String.concat " "
    in
    Printf.sprintf "feasible\n%s" entries

let parse_refine_result body =
  let line, rest =
    match String.index_opt body '\n' with
    | None -> (body, "")
    | Some i ->
      ( String.sub body 0 i,
        String.sub body (i + 1) (String.length body - i - 1) )
  in
  match String.trim line with
  | "infeasible" -> Refine_infeasible
  | l when String.length l >= 6 && String.sub l 0 6 = "failed" ->
    Refine_failed (String.trim (String.sub l 6 (String.length l - 6)))
  | "feasible" ->
    let entries =
      String.split_on_char ' ' (String.trim rest)
      |> List.filter (fun s -> s <> "")
      |> List.map (fun pair ->
             match String.split_on_char ':' pair with
             | [ row; cnt ] ->
               (int_field "refine row" row, int_field "refine count" cnt)
             | _ -> bad "refine entry" pair)
    in
    Refine_feasible entries
  | l -> bad "refine result" l
