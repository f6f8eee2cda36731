#include "sim/trace.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "util/log.h"

namespace isrf {

namespace {

/** Serializes concurrent mergeFrom() calls (see Tracer::mergeFrom). */
std::mutex &
mergeMutex()
{
    static std::mutex mu;
    return mu;
}

/** Split a comma-separated list, dropping empty fields. */
std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

const char *
typeName(TraceEventType t)
{
    switch (t) {
      case TraceEventType::Begin: return "B";
      case TraceEventType::End: return "E";
      case TraceEventType::Instant: return "i";
    }
    return "?";
}

/** Minimal JSON string escaping for event/channel names. */
std::string
jsonEscape(const char *s)
{
    std::string out;
    for (const char *p = s; *p; p++) {
        switch (*p) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(*p) < 0x20)
                out += strprintf("\\u%04x", *p);
            else
                out.push_back(*p);
        }
    }
    return out;
}

} // namespace

uint16_t
Tracer::channel(const std::string &name)
{
    for (size_t i = 0; i < channels_.size(); i++)
        if (channels_[i].name == name)
            return static_cast<uint16_t>(i);
    if (channels_.size() >= 0xFFFF)
        panic("Tracer: too many channels");
    Channel ch;
    ch.name = name;
    ch.enabled = enableAll_ ||
        std::find(pendingEnables_.begin(), pendingEnables_.end(), name) !=
            pendingEnables_.end();
    channels_.push_back(ch);
    refreshEnabledFlag();
    return static_cast<uint16_t>(channels_.size() - 1);
}

const std::string &
Tracer::channelName(uint16_t id) const
{
    static const std::string empty;
    return id < channels_.size() ? channels_[id].name : empty;
}

void
Tracer::enableChannels(const std::string &spec)
{
    if (spec.empty() || spec == "0") {
        disable();
        return;
    }
    // Lazily allocate the ring: a never-enabled tracer costs nothing.
    if (ring_.empty())
        setCapacity(kDefaultCapacity);
    if (spec == "all" || spec == "1") {
        enableAll_ = true;
        for (auto &ch : channels_)
            ch.enabled = true;
        refreshEnabledFlag();
        return;
    }
    enableAll_ = false;
    pendingEnables_ = splitCsv(spec);
    for (auto &ch : channels_) {
        ch.enabled =
            std::find(pendingEnables_.begin(), pendingEnables_.end(),
                      ch.name) != pendingEnables_.end();
    }
    refreshEnabledFlag();
}

void
Tracer::disable()
{
    enableAll_ = false;
    pendingEnables_.clear();
    for (auto &ch : channels_)
        ch.enabled = false;
    refreshEnabledFlag();
}

bool
Tracer::channelEnabled(uint16_t id) const
{
    return id < channels_.size() && channels_[id].enabled;
}

void
Tracer::refreshEnabledFlag()
{
    anyEnabled_ = enableAll_ || !pendingEnables_.empty();
    if (anyEnabled_)
        return;
    for (const auto &ch : channels_) {
        if (ch.enabled) {
            anyEnabled_ = true;
            return;
        }
    }
}

void
Tracer::setCapacity(size_t events)
{
    if (events == 0)
        panic("Tracer: zero capacity");
    ring_.assign(events, TraceEvent());
    head_ = 0;
    count_ = 0;
    totalRecorded_ = 0;
}

void
Tracer::clear()
{
    head_ = 0;
    count_ = 0;
    totalRecorded_ = 0;
}

const char *
Tracer::intern(const std::string &s)
{
    return interned_.insert(s).first->c_str();
}

void
Tracer::record(uint16_t ch, TraceEventType type, const char *name,
               Cycle ts, uint64_t arg)
{
    if (!channelEnabled(ch) || ring_.empty())
        return;
    TraceEvent e;
    e.ts = ts;
    e.channel = ch;
    e.type = type;
    e.name = name;
    e.arg = arg;
    append(e);
}

void
Tracer::append(const TraceEvent &e)
{
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    if (count_ < ring_.size())
        count_++;
    totalRecorded_++;
}

void
Tracer::mergeFrom(const Tracer &other)
{
    std::lock_guard<std::mutex> lock(mergeMutex());
    if (ring_.empty())
        setCapacity(kDefaultCapacity);
    for (const TraceEvent &src : other.events()) {
        TraceEvent e = src;
        // The source's channel ids and interned names die with it;
        // remap into this tracer's tables.
        e.channel = channel(other.channelName(src.channel));
        e.name = intern(src.name);
        append(e);
    }
    // The events the source's ring lost stay counted as lost here.
    totalRecorded_ += other.dropped();
}

std::vector<TraceEvent>
Tracer::lastEvents(size_t n) const
{
    n = std::min(n, count_);
    std::vector<TraceEvent> out;
    if (n == 0)
        return out;  // also covers a never-enabled tracer's empty ring
    out.reserve(n);
    // Oldest of the n requested events sits n slots behind head_.
    size_t start = (head_ + ring_.size() - n) % ring_.size();
    for (size_t i = 0; i < n; i++)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void
Tracer::chromeJson(std::ostream &out) const
{
    out << "{\"traceEvents\":[";
    bool first = true;
    // Metadata: name each channel as a thread so Perfetto labels rows.
    for (size_t c = 0; c < channels_.size(); c++) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
            << "\"tid\":" << c << ",\"args\":{\"name\":\""
            << jsonEscape(channels_[c].name.c_str()) << "\"}}";
    }
    // Oldest first, read in place: a folded trace can be millions of
    // events, so neither the events nor the text are copied whole.
    size_t start = count_ ? (head_ + ring_.size() - count_) % ring_.size()
                          : 0;
    for (size_t i = 0; i < count_; i++) {
        const TraceEvent &e = ring_[(start + i) % ring_.size()];
        if (!first)
            out << ",";
        first = false;
        out << "{\"name\":\"" << jsonEscape(e.name) << "\",\"ph\":\""
            << typeName(e.type) << "\",\"ts\":" << e.ts
            << ",\"pid\":0,\"tid\":" << e.channel;
        if (e.type == TraceEventType::Instant)
            out << ",\"s\":\"t\",\"args\":{\"arg\":" << e.arg << "}";
        else
            out << ",\"args\":{\"arg\":" << e.arg << "}";
        out << "}";
    }
    out << "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
        << "\"clock\":\"machine cycles (1 cycle = 1us in this view)\","
        << "\"dropped\":" << dropped() << "}}";
}

std::string
Tracer::chromeJson() const
{
    std::ostringstream out;
    chromeJson(out);
    return out.str();
}

std::string
Tracer::csv() const
{
    std::ostringstream out;
    out << "cycle,channel,type,name,arg\n";
    for (const TraceEvent &e : lastEvents(count_)) {
        out << e.ts << "," << channelName(e.channel) << ","
            << typeName(e.type) << "," << e.name << "," << e.arg << "\n";
    }
    return out.str();
}

namespace {

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    size_t n = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = n == content.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    chromeJson(f);
    f.close();
    return !f.fail();
}

bool
Tracer::writeCsv(const std::string &path) const
{
    return writeFile(path, csv());
}

void
Tracer::dumpTail(std::FILE *out, size_t n, const char *label) const
{
    auto tail = lastEvents(n);
    std::fprintf(out,
                 "--- [%s] last %zu trace events (of %llu recorded) ---\n",
                 label && *label ? label : "tracer", tail.size(),
                 static_cast<unsigned long long>(totalRecorded_));
    for (const TraceEvent &e : tail) {
        std::fprintf(out, "  cycle %-10llu %-8s %-2s %-24s arg=%llu\n",
                     static_cast<unsigned long long>(e.ts),
                     channelName(e.channel).c_str(), typeName(e.type),
                     e.name, static_cast<unsigned long long>(e.arg));
    }
    if (tail.empty())
        std::fprintf(out, "  (trace buffer empty; trace the run "
                          "(--trace) to capture events)\n");
}

} // namespace isrf
