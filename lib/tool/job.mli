(** Simulation job control.

    The paper lists "remote simulation / distributed / computer farm run
    capability" as a feature in development; this module provides the
    scheduling semantics at workstation scale: a named list of
    independent simulation jobs executed sequentially or over the
    persistent {!Parallel.Pool} of worker domains, each job's exception
    caught into its own result. Monte-Carlo runs and corner sweeps
    submit through it. *)

val run_all :
  ?parallel:[ `Auto | `Seq | `Par ] ->
  (string * (unit -> 'a)) list -> (string * ('a, exn) result) list
(** Execute the jobs and pair each name with its result, in submission
    order. [`Seq] runs them in order on the calling domain; [`Auto] (the
    default) and [`Par] submit one pool chunk per job, which runs inline
    when {!Parallel.Pool.effective_jobs} is 1 or when called from inside
    another pool task. Jobs must not share mutable state when run in
    parallel. Each job runs inside a [job:<name>] span. *)
