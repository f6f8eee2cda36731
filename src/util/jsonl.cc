#include "util/jsonl.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include "util/durable.h"
#include "util/json.h"
#include "util/log.h"

namespace isrf {

// ----------------------------------------------------------------------
// JsonlWriter
// ----------------------------------------------------------------------

bool
JsonlWriter::open(const std::string &path, bool append)
{
    close();
    f_ = std::fopen(path.c_str(), append ? "ab" : "wb");
    if (!f_) {
        ISRF_WARN("JsonlWriter: cannot open '%s': %s", path.c_str(),
                  std::strerror(errno));
        return false;
    }
    // append() fsyncs the file's bytes, not its name: a newly created
    // journal also needs its directory entry made durable.
    if (!fsyncParentDir(path)) {
        ISRF_WARN("JsonlWriter: cannot sync the directory of '%s': %s",
                  path.c_str(), std::strerror(errno));
        close();
        return false;
    }
    path_ = path;
    return true;
}

bool
JsonlWriter::append(const std::string &json)
{
    if (!f_)
        return false;
    if (json.find('\n') != std::string::npos || !jsonValid(json)) {
        // Refusing is better than poisoning: one bad line would make
        // every later reader treat the journal as corrupt.
        ISRF_WARN("JsonlWriter: refusing invalid record for '%s'",
                  path_.c_str());
        return false;
    }
    std::string line = json;
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), f_) != line.size())
        return false;
    if (std::fflush(f_) != 0)
        return false;
    // fsync per record is the durability contract: a record the caller
    // saw append() succeed for survives a SIGKILL of this process, and
    // (with the directory fsync in open()) a power loss of the host.
    return fsync(fileno(f_)) == 0;
}

void
JsonlWriter::close()
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
    path_.clear();
}

// ----------------------------------------------------------------------
// Tolerant reader
// ----------------------------------------------------------------------

JsonlReadResult
readJsonl(const std::string &path)
{
    JsonlReadResult res;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        res.error = strprintf("cannot open '%s': %s", path.c_str(),
                              std::strerror(errno));
        return res;
    }
    std::string content;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    bool readErr = std::ferror(f) != 0;
    std::fclose(f);
    if (readErr) {
        res.error = strprintf("I/O error reading '%s'", path.c_str());
        return res;
    }

    size_t pos = 0;
    size_t lineNo = 0;
    while (pos < content.size()) {
        size_t nl = content.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        const size_t end = terminated ? nl : content.size();
        std::string line = content.substr(pos, end - pos);
        lineNo++;
        if (line.empty()) {
            if (terminated)
                res.blankLines++;
        } else {
            if (jsonValid(line)) {
                // An unterminated-but-valid final chunk is a complete
                // record whose trailing newline was torn off — keep it.
                res.records.push_back(std::move(line));
            } else if (!terminated) {
                // Torn final line from a killed append: recoverable.
                res.tornFinalLine = true;
                res.tornBytes = line.size();
            } else {
                // An invalid *interior* line cannot come from a torn
                // append — the file is corrupt; refuse to guess.
                res.error = strprintf(
                    "'%s' line %zu is not valid JSON (corrupt journal)",
                    path.c_str(), lineNo);
                res.records.clear();
                return res;
            }
        }
        if (!terminated)
            break;
        pos = nl + 1;
    }
    return res;
}

// ----------------------------------------------------------------------
// JsonLineView
// ----------------------------------------------------------------------

std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); i++) {
        char c = s[i];
        if (c != '\\') {
            out.push_back(c);
            continue;
        }
        if (++i >= s.size())
            break;
        switch (s[i]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (i + 4 >= s.size())
                return out;
            unsigned cp = 0;
            for (int k = 1; k <= 4; k++) {
                char h = s[i + k];
                cp <<= 4;
                if (h >= '0' && h <= '9')
                    cp |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    cp |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    cp |= static_cast<unsigned>(h - 'A' + 10);
                else
                    return out;
            }
            i += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are
            // not produced by our writer; a lone surrogate encodes as
            // its raw 3-byte form, which round-trips harmlessly).
            if (cp < 0x80) {
                out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
                out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else {
                out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                out.push_back(
                    static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            }
            break;
          }
          default:
            // Unknown escape: keep the character (lenient).
            out.push_back(s[i]);
            break;
        }
    }
    return out;
}

namespace {

/** Skip one JSON value starting at `pos`; return one-past-end. */
size_t
skipValue(const std::string &s, size_t pos)
{
    const size_t n = s.size();
    while (pos < n && std::isspace(static_cast<unsigned char>(s[pos])))
        pos++;
    if (pos >= n)
        return n;
    char c = s[pos];
    if (c == '"') {
        pos++;
        while (pos < n) {
            if (s[pos] == '\\')
                pos++;  // skip the escaped char
            else if (s[pos] == '"')
                return pos + 1;
            pos++;
        }
        return n;
    }
    if (c == '{' || c == '[') {
        int depth = 0;
        bool inStr = false;
        while (pos < n) {
            char d = s[pos];
            if (inStr) {
                if (d == '\\')
                    pos++;
                else if (d == '"')
                    inStr = false;
            } else if (d == '"') {
                inStr = true;
            } else if (d == '{' || d == '[') {
                depth++;
            } else if (d == '}' || d == ']') {
                depth--;
                if (depth == 0)
                    return pos + 1;
            }
            pos++;
        }
        return n;
    }
    // number / literal: runs to the next delimiter
    while (pos < n && s[pos] != ',' && s[pos] != '}' && s[pos] != ']' &&
           !std::isspace(static_cast<unsigned char>(s[pos])))
        pos++;
    return pos;
}

} // namespace

JsonLineView::JsonLineView(std::string line) : line_(std::move(line))
{
    if (!jsonValid(line_))
        return;
    const size_t n = line_.size();
    size_t pos = 0;
    while (pos < n && std::isspace(static_cast<unsigned char>(line_[pos])))
        pos++;
    if (pos >= n || line_[pos] != '{')
        return;
    pos++;
    while (pos < n) {
        while (pos < n &&
               (std::isspace(static_cast<unsigned char>(line_[pos])) ||
                line_[pos] == ','))
            pos++;
        if (pos >= n || line_[pos] == '}')
            break;
        // key (jsonValid guaranteed the structure; scan the string)
        size_t keyEnd = skipValue(line_, pos);
        std::string key =
            jsonUnescape(line_.substr(pos + 1, keyEnd - pos - 2));
        pos = keyEnd;
        while (pos < n && (std::isspace(
                   static_cast<unsigned char>(line_[pos])) ||
                           line_[pos] == ':'))
            pos++;
        size_t valEnd = skipValue(line_, pos);
        spans_.emplace(key, std::make_pair(pos, valEnd));
        pos = valEnd;
    }
    valid_ = true;
}

std::vector<std::string>
JsonLineView::keys() const
{
    std::vector<std::string> out;
    out.reserve(spans_.size());
    for (const auto &kv : spans_)
        out.push_back(kv.first);
    return out;
}

bool
JsonLineView::getRaw(const std::string &key, std::string &out) const
{
    auto it = spans_.find(key);
    if (it == spans_.end())
        return false;
    out = line_.substr(it->second.first,
                       it->second.second - it->second.first);
    return true;
}

bool
JsonLineView::getString(const std::string &key, std::string &out) const
{
    std::string raw;
    if (!getRaw(key, raw) || raw.size() < 2 || raw.front() != '"' ||
        raw.back() != '"')
        return false;
    out = jsonUnescape(raw.substr(1, raw.size() - 2));
    return true;
}

bool
JsonLineView::getU64(const std::string &key, uint64_t &out) const
{
    std::string raw;
    if (!getRaw(key, raw) || raw.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
    if (errno != 0 || end != raw.c_str() + raw.size())
        return false;
    out = v;
    return true;
}

bool
JsonLineView::getDouble(const std::string &key, double &out) const
{
    std::string raw;
    if (!getRaw(key, raw) || raw.empty())
        return false;
    if (raw == "null") {
        // Our writer maps NaN/Inf to null; surface that as NaN.
        out = std::nan("");
        return true;
    }
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(raw.c_str(), &end);
    if (errno != 0 || end != raw.c_str() + raw.size())
        return false;
    out = v;
    return true;
}

bool
JsonLineView::getBool(const std::string &key, bool &out) const
{
    std::string raw;
    if (!getRaw(key, raw))
        return false;
    if (raw == "true") {
        out = true;
        return true;
    }
    if (raw == "false") {
        out = false;
        return true;
    }
    return false;
}

} // namespace isrf
