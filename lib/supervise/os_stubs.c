/* Process calls the Unix library lacks. The rlimit caps a solve
   worker's address space, so a runaway solve dies instead of swapping
   the machine. The parent-death signal kills a forked child when its
   parent dies, however it dies. flock(2) is the run-directory lock: it
   belongs to one open file description, so closing another descriptor
   of the file leaves it held (an fcntl lock, Unix.lockf's, would drop).
   The rlimit and parent-death stubs are best effort: 0 on success,
   nonzero when the platform refuses or lacks the call. */

#include <caml/mlvalues.h>

#ifdef _WIN32

CAMLprim value pll_supervise_set_mem_limit_mb(value mb) { return Val_int(1); }

CAMLprim value pll_supervise_die_with_parent(value unit) { return Val_int(1); }

CAMLprim value pll_supervise_flock(value fd, value lock)
{
  caml_failwith("flock: not available on this platform");
}

#else

#include <errno.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/resource.h>
#include <caml/unixsupport.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

CAMLprim value pll_supervise_set_mem_limit_mb(value mb)
{
  struct rlimit rl;
  rlim_t bytes = (rlim_t)Long_val(mb) * 1024 * 1024;
  rl.rlim_cur = bytes;
  rl.rlim_max = bytes;
  return Val_int(setrlimit(RLIMIT_AS, &rl) == 0 ? 0 : 1);
}

CAMLprim value pll_supervise_die_with_parent(value unit)
{
#ifdef __linux__
  return Val_int(prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 ? 0 : 1);
#else
  return Val_int(1);
#endif
}

/* [lock]: take an exclusive lock without waiting; false if another open
   file description holds it. Otherwise: unlock. Any other failure
   raises Unix.Unix_error. */
CAMLprim value pll_supervise_flock(value fd, value lock)
{
  if (flock(Int_val(fd), Bool_val(lock) ? LOCK_EX | LOCK_NB : LOCK_UN) == 0)
    return Val_true;
  if (Bool_val(lock) && errno == EWOULDBLOCK)
    return Val_false;
  uerror("flock", Nothing);
}

#endif
