/**
 * @file
 * Small command-line helpers shared by the tools: unknown-flag
 * suggestions ("did you mean --cycles?") so typos fail loudly instead
 * of being silently ignored, and checked number parsing so a malformed
 * value is rejected up front (exit 2, one line) instead of running
 * silently wrong.
 */

#ifndef STACKNOC_COMMON_CLI_HH
#define STACKNOC_COMMON_CLI_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stacknoc::cli {

/**
 * Case-sensitive Levenshtein edit distance between @p a and @p b.
 * O(|a|*|b|) time, O(min) memory — fine for option names.
 */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * @return the option in @p options closest to @p arg by edit distance,
 * or an empty string when nothing is plausibly close (distance greater
 * than half the typed flag's length, so "--frobnicate" suggests
 * nothing rather than something absurd).
 */
std::string closestOption(const std::string &arg,
                          const std::vector<std::string> &options);

/**
 * Print "unknown option 'X'" plus a "did you mean" hint (when one is
 * plausible) to stderr. The caller decides the exit path.
 */
void reportUnknownOption(const char *tool, const std::string &arg,
                         const std::vector<std::string> &options);

/**
 * Parse @p text as a decimal integer in [@p lo, @p hi]: digits only —
 * no sign, no blanks, no overflow. @return an empty string on success,
 * else a one-line reason that starts with @p name.
 */
std::string parseUint(const std::string &name, const std::string &text,
                      std::uint64_t lo, std::uint64_t hi,
                      std::uint64_t &out);

/** Print "<tool>: <reason>" as one stderr line and exit 2. */
[[noreturn]] void reject(const char *tool, const std::string &reason);

/**
 * Sequential reader over a tool's argument tokens. Every accessor that
 * needs a value rejects (exit 2, one line naming the flag) when the
 * value is missing or malformed.
 */
class Args
{
  public:
    Args(const char *tool, std::vector<std::string> tokens)
        : tool_(tool), tokens_(std::move(tokens))
    {}

    bool done() const { return pos_ >= tokens_.size(); }

    /** The next token; call only while !done(). */
    const std::string &next() { return tokens_[pos_++]; }

    /** The value following @p flag. */
    const std::string &value(const std::string &flag);

    /** The value following @p flag as an integer in [lo, hi]. */
    std::uint64_t number(const std::string &flag, std::uint64_t lo,
                         std::uint64_t hi);

    /** The value following @p flag as a finite real in [lo, hi]. */
    double real(const std::string &flag, double lo, double hi);

    [[noreturn]] void reject(const std::string &reason) const
    {
        cli::reject(tool_, reason);
    }

  private:
    const char *tool_;
    std::vector<std::string> tokens_;
    std::size_t pos_ = 0;
};

} // namespace stacknoc::cli

#endif // STACKNOC_COMMON_CLI_HH
