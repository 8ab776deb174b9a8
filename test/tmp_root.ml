(* One temporary directory per test process, [$TMPDIR/pkgq-test-<suite>-<pid>],
   removed with everything under it when the process exits. A forked
   child that exits does not remove its parent's directory. *)

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let make suite =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pkgq-test-%s-%d" suite (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let owner = Unix.getpid () in
  at_exit (fun () -> if Unix.getpid () = owner then remove dir);
  dir
