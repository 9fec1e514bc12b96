#include "base/parse.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "base/logging.hh"

namespace kloc {

uint64_t
parseNumber(const std::string &what, const char *text, uint64_t min,
            uint64_t max)
{
    const bool digits = std::isdigit(static_cast<unsigned char>(*text));
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        digits ? std::strtoull(text, &end, 10) : 0;
    if (!digits || *end != '\0')
        fatal("%s takes a decimal whole number, not '%s'", what.c_str(),
              text);
    if (errno == ERANGE || value < min || value > max)
        fatal("%s must be from %llu to %llu, not %s", what.c_str(),
              (unsigned long long)min, (unsigned long long)max, text);
    return value;
}

} // namespace kloc
