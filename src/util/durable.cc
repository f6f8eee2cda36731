#include "util/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace isrf {

bool
fsyncParentDir(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    std::string dir = ".";
    if (slash != std::string::npos)
        dir = slash == 0 ? "/" : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    const int err = errno;
    ::close(fd);
    errno = err;
    return ok;
}

} // namespace isrf
