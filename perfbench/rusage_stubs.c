/* Process control the OCaml Unix library does not expose: wait4(2)
   reports a reaped child's CPU time and peak resident set together with
   its exit status; the clock-tick rate converts the CPU fields of
   /proc/PID/stat for a child that is still running; and
   sched_setaffinity(2) keeps the benchmark and its children on one
   CPU. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 : int -> int * float * int
   Blocks until child [pid] exits; returns its exit code (128 + signal
   number when killed), its user + system CPU seconds and its peak
   resident set in KiB. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal2(res, cpu);
  pid_t pid = Int_val(vpid);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  cpu = caml_copy_double((double)ru.ru_utime.tv_sec
                         + (double)ru.ru_utime.tv_usec * 1e-6
                         + (double)ru.ru_stime.tv_sec
                         + (double)ru.ru_stime.tv_usec * 1e-6);
  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, cpu);
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* perfbench_clk_tck : unit -> int — ticks per second of /proc CPU times. */
value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* perfbench_pin_last_cpu : unit -> int
   Restricts this process, and so every child it starts later, to the
   highest-numbered CPU it may run on; returns that CPU, or -1 when the
   affinity cannot be read or set. */
value perfbench_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
    if (CPU_ISSET(cpu, &set)) break;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
