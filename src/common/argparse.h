/**
 * @file
 * Strict CLI value parsers shared by the command-line tools (cqsim,
 * cq_faultsweep, cq_bench). Every parser either returns a fully
 * validated value or prints a one-line `<prog>: <flag> ...`
 * diagnostic to stderr and exits 2 — a bad flag must never start a
 * run. The error paths are death-tested centrally in
 * tests/test_bench_harness.cc.
 */

#ifndef CQ_COMMON_ARGPARSE_H
#define CQ_COMMON_ARGPARSE_H

#include <cstdint>
#include <string>

namespace cq::args {

/**
 * Parse @p text as an unsigned integer in [lo, hi]. Rejects empty
 * input, non-digit tokens, trailing junk ("12x"), negative numbers
 * and out-of-range values.
 */
std::uint64_t parseU64(const std::string &prog, const std::string &flag,
                       const std::string &text, std::uint64_t lo,
                       std::uint64_t hi);

/** Parse @p text as a finite non-negative double (strict: the whole
 *  token must be consumed). */
double parseNonNegF64(const std::string &prog, const std::string &flag,
                      const std::string &text);

/** Parse @p text as a fraction in [0, 1]. */
double parseFrac(const std::string &prog, const std::string &flag,
                 const std::string &text);

/** Print `<prog>: <flag> <why>, got '<text>'` and exit 2. */
[[noreturn]] void failValue(const std::string &prog,
                            const std::string &flag,
                            const std::string &why,
                            const std::string &text);

/**
 * Fetch the value of argv[i] (advancing @p i), exiting 2 with a
 * one-line error when the flag is last on the command line.
 */
std::string nextValue(const std::string &prog, int argc, char **argv,
                      int &i);

} // namespace cq::args

#endif // CQ_COMMON_ARGPARSE_H
