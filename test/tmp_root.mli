(** [make suite] creates [$TMPDIR/pkgq-test-<suite>-<pid>] and arranges
    for the process to remove it, and everything under it, at exit. *)
val make : string -> string
