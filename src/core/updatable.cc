#include "core/updatable.h"

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace los::core {

void LowerThreadPriority(int nice) {
#ifdef __linux__
  // PRIO_PROCESS with a thread id adjusts just this thread on Linux.
  (void)setpriority(PRIO_PROCESS,
                    static_cast<id_t>(syscall(SYS_gettid)), nice);
#else
  (void)nice;
#endif
}

}  // namespace los::core
