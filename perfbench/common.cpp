#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "support/json.hpp"

namespace perfbench {

namespace fs = std::filesystem;

u64
Rng::next()
{
    u64 z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

s64
Rng::range(s64 lo, s64 hi)
{
    u64 span = static_cast<u64>(hi - lo) + 1;
    return lo + static_cast<s64>(next() % span);
}

double
Rng::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - epoch)
        .count();
}

void
sleepUntil(double seconds)
{
    double wait = seconds - now();
    if (wait > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

s64
dirBytes(const std::string &dir, const std::string &suffix, s64 *files)
{
    s64 bytes = 0;
    s64 count = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        std::string name = it->path().filename().string();
        if (name.size() < suffix.size()
            || name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix)
                   != 0)
            continue;
        bytes += static_cast<s64>(it->file_size(ec));
        ++count;
    }
    if (files != nullptr)
        *files = count;
    return bytes;
}

void
Outcome::fail(const std::string &message)
{
    ++failed;
    if (problems.size() < 8)
        problems.push_back(message);
}

void
Outcome::addEndToEnd(std::string name, double value, std::string unit,
                     s64 samples, std::string meaning)
{
    endToEnd.push_back(Metric{std::move(name), value, std::move(unit),
                              samples, std::move(meaning)});
}

void
Outcome::addLayer(std::string name, double value, std::string unit,
                  s64 samples)
{
    perLayer.push_back(
        Metric{std::move(name), value, std::move(unit), samples, ""});
}

void
Outcome::addInfo(std::string name, double value, std::string unit,
                 s64 samples)
{
    info.push_back(
        Metric{std::move(name), value, std::move(unit), samples, ""});
}

std::string
Line::render(const std::string &id) const
{
    cmswitch::JsonWriter w(0);
    w.beginObject().field("op", "compile").field("id", id);
    w.field("model", model).field("chip", chip);
    if (seq > 0)
        w.field("seq", seq);
    if (decode > 0)
        w.field("decode", decode);
    if (layers > 0)
        w.field("layers", layers);
    if (optimize)
        w.field("optimize", true);
    w.endObject();
    std::string text = w.str();
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

std::string
Line::family() const
{
    if (decode > 0)
        return model + ":decode";
    if (seq > 0)
        return model + ":prefill";
    return model;
}

bool
resolveLine(const std::string &line, cmswitch::CompileRequest *out,
            std::string *error)
{
    cmswitch::ServeRequest request;
    if (!cmswitch::parseServeRequest(line, &request, error)
        || !cmswitch::resolveServeRequest(request, out, error))
        return false;
    out->searchThreads = 1;
    return true;
}

void
freshDir(const std::string &dir)
{
    removeDir(dir);
    fs::create_directories(dir);
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

void
flushWrites()
{
    sync();
}

} // namespace perfbench
