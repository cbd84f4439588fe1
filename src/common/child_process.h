/**
 * @file
 * The one forked-child runner: run a function in a child process and
 * reap it under a hard deadline.
 *
 * Every driver that must survive its own workload — the fault sweep's
 * trials, the kill–restart legs (which die by SIGKILL on purpose),
 * the crash tests — goes through runInChild(), so the sequence is
 * written once: flush stdio (a child would otherwise flush the
 * parent's buffered lines a second time), fork, respawn the thread
 * pool in the child (workers do not survive a fork), run the body,
 * leave through _exit (no parent-owned atexit or static destructor
 * runs twice) after, in AddressSanitizer builds, the leak check that
 * _exit would skip; in the parent, poll waitpid until the child ends or
 * the deadline passes, then SIGKILL and reap it.
 */

#ifndef CQ_COMMON_CHILD_PROCESS_H
#define CQ_COMMON_CHILD_PROCESS_H

#include <cstdint>
#include <functional>

namespace cq {

/** How a child run by runInChild() ended. */
struct ChildResult
{
    enum class Kind
    {
        /** The child exited; code is its exit status. */
        Exited,
        /** A signal ended the child; code is the signal number. */
        Signaled,
        /** The deadline passed; the child was SIGKILLed and reaped. */
        TimedOut,
    };
    Kind kind = Kind::Exited;
    int code = 0;

    bool
    exitedWith(int status) const
    {
        return kind == Kind::Exited && code == status;
    }

    bool
    killedBy(int signal) const
    {
        return kind == Kind::Signaled && code == signal;
    }
};

/**
 * Run @p body in a forked child and wait at most @p timeoutMs for it.
 * The child exits with body's return value, or with 23 (LeakSanitizer's
 * own default) when the leak check of an AddressSanitizer build with
 * detect_leaks=1 finds leaks; an exception escaping body terminates
 * it (Signaled, SIGABRT). Call outside any parallel
 * region. Exits the process with status 2 if the fork itself fails.
 */
ChildResult runInChild(const std::function<int()> &body,
                       std::uint64_t timeoutMs);

} // namespace cq

#endif // CQ_COMMON_CHILD_PROCESS_H
