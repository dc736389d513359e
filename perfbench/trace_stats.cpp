#include "trace_stats.hpp"

#include <algorithm>
#include <vector>

#include "support/json_parse.hpp"

namespace perfbench {

namespace {

struct Event
{
    double start = 0.0; ///< microseconds
    double end = 0.0;
    double covered = 0.0; ///< by direct children
    std::size_t name = 0;
};

/** Index one past the '}' closing the object that opens at @p open,
 *  or npos. Strings are skipped with their escapes. */
std::size_t
objectEnd(const std::string &text, std::size_t open)
{
    int depth = 0;
    bool inString = false;
    for (std::size_t i = open; i < text.size(); ++i) {
        char c = text[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{')
            ++depth;
        else if (c == '}' && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

} // namespace

bool
spanTotals(const std::string &traceJson,
           std::map<std::string, SpanTotals> *out, std::string *error)
{
    std::size_t pos = traceJson.find("\"traceEvents\"");
    pos = pos == std::string::npos ? pos : traceJson.find('[', pos);
    if (pos == std::string::npos) {
        *error = "trace has no traceEvents array";
        return false;
    }
    std::vector<std::string> names;
    std::map<std::string, std::size_t> nameIndex;
    std::map<cmswitch::s64, std::vector<Event>> lanes;
    for (++pos; pos < traceJson.size();) {
        char c = traceJson[pos];
        if (c == ']')
            break;
        if (c != '{') {
            ++pos;
            continue;
        }
        std::size_t end = objectEnd(traceJson, pos);
        if (end == std::string::npos) {
            *error = "truncated trace event";
            return false;
        }
        cmswitch::JsonValue event;
        if (!cmswitch::parseJson(
                std::string_view(traceJson).substr(pos, end - pos), &event,
                error))
            return false;
        pos = end;
        const cmswitch::JsonValue *ph = event.find("ph");
        if (ph == nullptr || !ph->isString() || ph->stringValue != "X")
            continue;
        const cmswitch::JsonValue *name = event.find("name");
        const cmswitch::JsonValue *ts = event.find("ts");
        const cmswitch::JsonValue *dur = event.find("dur");
        const cmswitch::JsonValue *tid = event.find("tid");
        if (name == nullptr || ts == nullptr || dur == nullptr
            || tid == nullptr || !ts->isNumber() || !dur->isNumber()) {
            *error = "trace event without name/ts/dur/tid";
            return false;
        }
        auto [it, added] =
            nameIndex.emplace(name->stringValue, names.size());
        if (added)
            names.push_back(name->stringValue);
        lanes[tid->intValue].push_back(
            Event{ts->numberValue, ts->numberValue + dur->numberValue, 0.0,
                  it->second});
    }

    // Spans on one thread nest (RAII scopes), so a stack walk in start
    // order finds each span's direct parent.
    constexpr double kSlackUs = 1e-3;
    for (auto &[tid, events] : lanes) {
        std::sort(events.begin(), events.end(),
                  [](const Event &a, const Event &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.end > b.end;
                  });
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < events.size(); ++i) {
            while (!stack.empty()
                   && events[stack.back()].end <= events[i].start + kSlackUs)
                stack.pop_back();
            if (!stack.empty()) {
                Event &parent = events[stack.back()];
                parent.covered += std::min(events[i].end, parent.end)
                                  - events[i].start;
            }
            stack.push_back(i);
        }
        for (const Event &e : events) {
            SpanTotals &totals = (*out)[names[e.name]];
            double duration = e.end - e.start;
            totals.count += 1;
            totals.totalMs += duration / 1e3;
            totals.selfMs += std::max(0.0, duration - e.covered) / 1e3;
        }
    }
    return true;
}

} // namespace perfbench
