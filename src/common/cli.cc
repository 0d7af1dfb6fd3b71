#include "common/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace stacknoc::cli {

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size(), m = b.size();
    std::vector<std::size_t> row(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        std::size_t prev_diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t del = row[j] + 1;
            const std::size_t ins = row[j - 1] + 1;
            const std::size_t sub =
                prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            prev_diag = row[j];
            row[j] = std::min({del, ins, sub});
        }
    }
    return row[m];
}

std::string
closestOption(const std::string &arg,
              const std::vector<std::string> &options)
{
    std::string best;
    std::size_t best_dist = arg.size() / 2 + 1; // plausibility cutoff
    for (const auto &opt : options) {
        const std::size_t d = editDistance(arg, opt);
        if (d < best_dist) {
            best_dist = d;
            best = opt;
        }
    }
    return best;
}

void
reportUnknownOption(const char *tool, const std::string &arg,
                    const std::vector<std::string> &options)
{
    std::fprintf(stderr, "%s: unknown option '%s'", tool, arg.c_str());
    const std::string hint = closestOption(arg, options);
    if (!hint.empty())
        std::fprintf(stderr, " (did you mean '%s'?)", hint.c_str());
    std::fprintf(stderr, "\n");
}

std::string
parseUint(const std::string &name, const std::string &text,
          std::uint64_t lo, std::uint64_t hi, std::uint64_t &out)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return name + ": '" + text + "' is not an unsigned integer";
    std::uint64_t v = 0;
    for (const char c : text) {
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (v > (max - d) / 10)
            return name + ": '" + text + "' overflows 64 bits";
        v = v * 10 + d;
    }
    if (v < lo || v > hi)
        return name + " must be " +
               (hi == max ? ">= " + std::to_string(lo)
                          : "in " + std::to_string(lo) + ".." +
                                std::to_string(hi)) +
               " (got " + text + ")";
    out = v;
    return {};
}

void
reject(const char *tool, const std::string &reason)
{
    std::fprintf(stderr, "%s: %s\n", tool, reason.c_str());
    std::exit(2);
}

const std::string &
Args::value(const std::string &flag)
{
    if (done())
        reject(flag + " requires a value");
    return next();
}

std::uint64_t
Args::number(const std::string &flag, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    if (const std::string err = parseUint(flag, value(flag), lo, hi, v);
        !err.empty())
        reject(err);
    return v;
}

double
Args::real(const std::string &flag, double lo, double hi)
{
    const std::string &text = value(flag);
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v))
        reject(flag + ": '" + text + "' is not a number");
    if (v < lo || v > hi) {
        std::ostringstream os;
        os << flag << " must be in " << lo << ".." << hi << " (got " << text
           << ")";
        reject(os.str());
    }
    return v;
}

} // namespace stacknoc::cli
