/**
 * @file
 * Strict parsing of numbers that come from outside the simulator:
 * command-line flags and arguments, and environment variables.
 */

#ifndef KLOC_BASE_PARSE_HH
#define KLOC_BASE_PARSE_HH

#include <cstdint>
#include <limits>
#include <string>

namespace kloc {

/**
 * The value of @p text, which @p what names in the error message
 * (e.g. "flag --ops"): decimal digits only (no sign, space or
 * suffix) within [@p min, @p max]. Anything else is a usage error
 * (fatal, exit 1).
 */
uint64_t parseNumber(const std::string &what, const char *text,
                     uint64_t min,
                     uint64_t max = std::numeric_limits<uint64_t>::max());

} // namespace kloc

#endif // KLOC_BASE_PARSE_HH
