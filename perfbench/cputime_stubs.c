/* CPU-time clocks for the benchmark's timings.
 *
 * CPU time counts only the time a thread (or the whole process) was
 * running.  On a guest whose kernel accounts steal time, the time the
 * hypervisor gave the CPU to another guest is left out, so a timing
 * does not move with the load of other guests on the same host. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <time.h>

static double seconds_of(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

double perfbench_thread_cpu_unboxed(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_THREAD_CPUTIME_ID);
}

CAMLprim value perfbench_thread_cpu(value unit)
{
  return caml_copy_double(perfbench_thread_cpu_unboxed(unit));
}

double perfbench_process_cpu_unboxed(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_PROCESS_CPUTIME_ID);
}

CAMLprim value perfbench_process_cpu(value unit)
{
  return caml_copy_double(perfbench_process_cpu_unboxed(unit));
}
