#include "session.hpp"

#include <cerrno>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

#include "support/json_parse.hpp"
#include "support/strings.hpp"

namespace perfbench {

Session::Session(const cmswitch::ServeEngineOptions &options,
                 std::size_t capacity)
    : exchanges_(capacity)
{
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("socketpair failed");
    serverFd_ = fds[0];
    clientFd_ = fds[1];
    writer_ = std::make_unique<cmswitch::ServeWriter>(serverFd_);
    engine_ = std::make_unique<cmswitch::ServeEngine>(
        options,
        [this](const std::string &line) { writer_->writeLine(line); });
    sessionThread_ = std::thread([this] {
        cmswitch::runServeSession(*engine_, serverFd_);
        engine_->drainIdle();
        shutdown(serverFd_, SHUT_WR); // the reader sees EOF
    });
    readerThread_ = std::thread([this] { readLoop(); });
}

Session::~Session()
{
    close();
}

void
Session::send(std::size_t index, double due, const std::string &line)
{
    std::string out = line + "\n";
    std::lock_guard<std::mutex> lock(sendMutex_);
    {
        std::lock_guard<std::mutex> state(mutex_);
        exchanges_.at(index).due = due;
        exchanges_[index].sent = now();
    }
    std::size_t off = 0;
    while (off < out.size()) {
        ssize_t put = write(clientFd_, out.data() + off, out.size() - off);
        if (put > 0)
            off += static_cast<std::size_t>(put);
        else if (put < 0 && errno != EINTR)
            return; // the session is gone; the id stays unanswered
    }
}

bool
Session::wait(std::size_t index, double timeoutSeconds)
{
    return waitRange(index, index + 1, timeoutSeconds);
}

bool
Session::waitRange(std::size_t first, std::size_t last,
                   double timeoutSeconds)
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::size_t cursor = first; // everything before it is answered
    return answered_.wait_for(
        lock, std::chrono::duration<double>(timeoutSeconds), [&] {
            while (cursor < last && exchanges_[cursor].responses > 0)
                ++cursor;
            return cursor == last;
        });
}

void
Session::close()
{
    if (closed_)
        return;
    closed_ = true;
    shutdown(clientFd_, SHUT_WR); // "no more requests"
    sessionThread_.join();
    readerThread_.join();
    engine_.reset(); // joins the engine's workers
    ::close(serverFd_);
    ::close(clientFd_);
}

Exchange
Session::exchange(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return exchanges_.at(index);
}

s64
Session::strayLines() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return strays_;
}

void
Session::readLoop()
{
    cmswitch::FdLineReader reader(clientFd_);
    std::string line;
    for (;;) {
        auto result = reader.next(&line, 200);
        if (result == cmswitch::FdLineReader::Result::kTimeout)
            continue;
        if (result != cmswitch::FdLineReader::Result::kLine)
            return;
        double at = now();
        if (cmswitch::trim(line).empty())
            continue; // the blank line after every response
        cmswitch::JsonValue doc;
        std::string error;
        const cmswitch::JsonValue *id = nullptr;
        std::size_t index = exchanges_.size();
        if (cmswitch::parseJson(line, &doc, &error) && doc.isObject())
            id = doc.find("id");
        if (id != nullptr && id->isString() && id->stringValue.size() > 1
            && id->stringValue[0] == 'q') {
            try {
                index = std::stoul(id->stringValue.substr(1));
            } catch (const std::exception &) {
                index = exchanges_.size();
            }
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (index >= exchanges_.size()) {
            ++strays_;
            continue;
        }
        Exchange &x = exchanges_[index];
        if (x.responses++ > 0)
            continue; // duplicates are counted, the first one stands
        x.received = at;
        auto text = [&](const char *name) {
            const cmswitch::JsonValue *v = doc.find(name);
            return v != nullptr && v->isString() ? v->stringValue
                                                 : std::string();
        };
        auto number = [&](const char *name) {
            const cmswitch::JsonValue *v = doc.find(name);
            return v != nullptr && v->isNumber() ? v->numberValue : -1.0;
        };
        x.status = text("status");
        x.cache = text("cache");
        x.key = text("key");
        x.error = text("error");
        const cmswitch::JsonValue *coalesced = doc.find("coalesced");
        x.coalesced = coalesced != nullptr && coalesced->isBool()
                      && coalesced->boolValue;
        x.queueWait = number("queue_wait_seconds");
        x.execute = number("execute_seconds");
        answered_.notify_all();
    }
}

} // namespace perfbench
