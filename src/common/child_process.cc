/**
 * @file
 * Implementation of the forked-child runner.
 */

#include "common/child_process.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/threadpool.h"

#ifdef __SANITIZE_ADDRESS__ // GCC and Clang, -fsanitize=address
#include <sanitizer/lsan_interface.h>
#endif

namespace cq {

namespace {

/** Exit status of a child in which LeakSanitizer found leaks. */
constexpr int kChildLeakExit = 23;

ChildResult
classify(int status)
{
    if (WIFSIGNALED(status))
        return {ChildResult::Kind::Signaled, WTERMSIG(status)};
    return {ChildResult::Kind::Exited, WEXITSTATUS(status)};
}

} // namespace

ChildResult
runInChild(const std::function<int()> &body, std::uint64_t timeoutMs)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("runInChild: fork");
        std::exit(2);
    }
    if (pid == 0) {
        ThreadPool::instance().reinitAfterFork();
        // noexcept: an escaping exception must end the child here,
        // not unwind into the parent's code running in the child.
        int rc = [&]() noexcept { return body(); }();
#ifdef __SANITIZE_ADDRESS__
        // _exit skips LeakSanitizer's at-exit check, so run it here:
        // every error path a child takes stays leak-checked.
        if (__lsan_do_recoverable_leak_check() != 0)
            rc = kChildLeakExit;
#endif
        std::fflush(stdout);
        std::fflush(stderr);
        ::_exit(rc);
    }

    const std::uint64_t pollUs = 2000;
    for (std::uint64_t waitedUs = 0;; waitedUs += pollUs) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return classify(status);
        if (r < 0 && errno != EINTR) {
            std::perror("runInChild: waitpid");
            std::exit(2);
        }
        if (waitedUs / 1000 >= timeoutMs) {
            ::kill(pid, SIGKILL);
            while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
            }
            return {ChildResult::Kind::TimedOut, 0};
        }
        ::usleep(pollUs);
    }
}

} // namespace cq
