(* The environment knobs of the front ends. Each is read once, at
   startup. A knob that backs a flag is that flag's Cmdliner [~env]
   fallback; the ones here have no flag. A malformed value is an error
   (a command-line error under Cmdliner, as for a malformed flag), never
   a silent default. *)

open Cmdliner

type 'a t = {
  read : unit -> ('a, string) result;
  envs : Cmd.Env.info list;  (* for the ENVIRONMENT section of --help *)
}

(* Flag fallbacks that [paql_repl], which has no flags, reads directly. *)
let store_var = "PKGQ_STORE_DIR"
let faults_var = "PKGQ_FAULTS"

let positive =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> Ok n
        | _ -> Error (Printf.sprintf "%S is not a positive integer" s)),
      Format.pp_print_int )

(* Unset or empty is [default]. *)
let env ?(doc = "") conv name ~default =
  {
    read =
      (fun () ->
        match Sys.getenv_opt name with
        | None | Some "" -> Ok default
        | Some s ->
          Result.map_error
            (fun (`Msg m) -> Printf.sprintf "environment variable %s: %s" name m)
            (Arg.conv_parser conv s));
    envs = [ Cmd.Env.info name ~doc ];
  }

let term k =
  Term.(
    ret
      (const (fun () ->
           match k.read () with Ok v -> `Ok v | Error m -> `Error (false, m))
      $ const ()))

let levels =
  env positive "PKGQ_HIER_LEVELS" ~default:Pkg.Hierarchy.default_levels
    ~doc:"Level count of the progressive-shading hierarchy (default 3)."

let stochastic =
  let d = Pkg.Stochastic.default_options in
  let scenarios =
    env positive "PKGQ_SCENARIOS" ~default:d.scenarios
      ~doc:"Optimization scenarios of the stochastic driver (default 48)."
  and validation =
    env positive "PKGQ_VALIDATE" ~default:d.validation
      ~doc:"Held-out validation scenarios of the stochastic driver (default 200)."
  and summaries =
    env positive "PKGQ_SUMMARIES" ~default:d.summaries
      ~doc:"Initial summary count per probabilistic constraint (default 2)."
  in
  {
    read =
      (fun () ->
        let ( let* ) = Result.bind in
        let* scenarios = scenarios.read () in
        let* validation = validation.read () in
        let* summaries = summaries.read () in
        Ok { d with scenarios; validation; summaries });
    envs = scenarios.envs @ validation.envs @ summaries.envs;
  }

let wal_sync =
  let conv =
    Arg.conv'
      ( (fun s ->
          Option.to_result (Store.Wal.sync_of_string s)
            ~none:(Printf.sprintf "%S is not always|off" s)),
        fun ppf s ->
          Format.pp_print_string ppf
            (match s with Store.Wal.Always -> "always" | Never -> "off") )
  in
  env conv "PKGQ_WAL_SYNC" ~default:Store.Wal.Always
    ~doc:
      "$(b,off) leaves WAL flushing to the kernel instead of an fsync per \
       record (default $(b,always)); for measuring the fsync's cost."
