/**
 * @file
 * An in-process `cmswitchc serve` session over a socketpair: a
 * ServeEngine and its runServeSession thread on one end, the
 * benchmark's client on the other. Request lines cross a real socket,
 * so transport, parse, resolve, key, queue, lookup, render and write
 * are all on the measured path.
 *
 * The client half skips blank lines: the daemon writes one after every
 * response (JsonWriter::str() already ends in '\n' and ServeWriter::
 * writeLine appends another). Any other unparseable line is counted.
 */

#ifndef CMSWITCH_PERFBENCH_SESSION_HPP
#define CMSWITCH_PERFBENCH_SESSION_HPP

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "service/serve/serve_engine.hpp"
#include "service/serve/serve_io.hpp"

namespace perfbench {

/** The client's view of one request id ("q<index>"). */
struct Exchange
{
    double due = 0.0;      ///< when it should have been sent
    double sent = 0.0;     ///< when its line was written
    double received = 0.0; ///< when its first terminal response arrived
    s64 responses = 0;     ///< terminal responses seen for the id
    std::string status;    ///< "ok", "error", "shed"
    std::string cache;     ///< cache outcome of an ok response
    std::string key;
    bool coalesced = false;
    double queueWait = 0.0; ///< seconds, from the response
    double execute = 0.0;   ///< seconds, from the response
    std::string error;
};

class Session
{
  public:
    /** @p capacity bounds the request indices this session can send. */
    Session(const cmswitch::ServeEngineOptions &options,
            std::size_t capacity);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Write request @p index's line (its id must be "q<index>");
     *  safe from several sender threads. */
    void send(std::size_t index, double due, const std::string &line);

    /** Block until @p index has a response; false on timeout. */
    bool wait(std::size_t index, double timeoutSeconds);

    /** Block until every index in [first, last) has a response. */
    bool waitRange(std::size_t first, std::size_t last,
                   double timeoutSeconds);

    /** End the session: half-close, let the daemon drain, join. */
    void close();

    /** Snapshot of request @p index (call after it has a response, or
     *  after close()). */
    Exchange exchange(std::size_t index) const;

    /** Non-blank lines that were not a response to a known id. */
    s64 strayLines() const;

  private:
    void readLoop();

    std::unique_ptr<cmswitch::ServeWriter> writer_;
    std::unique_ptr<cmswitch::ServeEngine> engine_;
    int serverFd_ = -1;
    int clientFd_ = -1;

    mutable std::mutex mutex_; ///< guards exchanges_ and strays_
    std::condition_variable answered_;
    std::vector<Exchange> exchanges_;
    s64 strays_ = 0;

    std::mutex sendMutex_; ///< one writer on the client fd at a time
    bool closed_ = false;

    std::thread sessionThread_;
    std::thread readerThread_;
};

} // namespace perfbench

#endif // CMSWITCH_PERFBENCH_SESSION_HPP
