#include "util/parse.h"

#include <cerrno>
#include <cstdlib>

namespace isrf {

bool
parseU64(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    // strtoull happily accepts "-1" (wrapping) and leading whitespace;
    // reject anything but plain digits up front.
    for (char c : text)
        if (c < '0' || c > '9')
            return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

bool
parseI64(const std::string &text, int64_t &out)
{
    bool neg = !text.empty() && text[0] == '-';
    uint64_t mag = 0;
    if (!parseU64(neg ? text.substr(1) : text, mag))
        return false;
    if (neg) {
        if (mag > 0x8000000000000000ull)
            return false;
        out = -static_cast<int64_t>(mag - 1) - 1;
    } else {
        if (mag > 0x7fffffffffffffffull)
            return false;
        out = static_cast<int64_t>(mag);
    }
    return true;
}

bool
parseF64(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    // strtod accepts leading whitespace, "inf", "nan", and hex floats;
    // restrict to plain decimal notation up front.
    for (char c : text) {
        if ((c < '0' || c > '9') && c != '.' && c != '-' && c != '+' &&
            c != 'e' && c != 'E')
            return false;
    }
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

} // namespace isrf
