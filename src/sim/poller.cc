#include "sim/poller.h"

#include <algorithm>

#include "base/logging.h"
#include "sim/tuning.h"

namespace mirage::sim {

Poller::Poller(Engine &engine, std::function<bool()> drain,
               std::function<bool()> rearm)
    : engine_(engine), drain_(std::move(drain)), rearm_(std::move(rearm))
{
    engine_.addPoller(this);
}

Poller::~Poller()
{
    cancel();
    engine_.removePoller(this);
}

void
Poller::kick()
{
    last_activity_ = engine_.now();
    span_ = kFirstSpan;
    // The owner's drain consumed every publish from an earlier event;
    // one from this event may have come after it.
    if (fresh_ && (fresh_at_ != engine_.now() ||
                   fresh_hash_ != engine_.currentHash()))
        fresh_ = false;
    if (!scheduled_)
        schedule();
}

void
Poller::cancel()
{
    if (!scheduled_)
        return;
    Tick tick = next_;
    while (tick.index < at_ && engine_.dispatchedBefore(tick.when, tick.key))
        advance(tick);
    credit(tick);
    engine_.cancel(event_);
    scheduled_ = false;
}

void
Poller::creditBefore(TimePoint end)
{
    if (!scheduled_)
        return;
    Tick tick = next_;
    while (tick.index < at_ && tick.when < end)
        advance(tick);
    credit(tick);
}

void
Poller::credit(const Tick &upto)
{
    if (upto.index == next_.index)
        return;
    engine_.creditElided(upto.index - next_.index, upto.sum);
    elided_sum_ -= upto.sum;
    next_ = upto;
    next_.sum = 0;
}

void
Poller::notePublish()
{
    CHECK(!Engine::current() || Engine::current() == &engine_);
    TimePoint now = engine_.now();
    if (!scheduled_) {
        fresh_ = true;
        fresh_at_ = now;
        fresh_hash_ = engine_.currentHash();
        return;
    }
    // The first tick at or after now; the one at exactly now sees the
    // entries only if it is ordered after the publishing event.
    u64 index = next_.index;
    if (now > next_.when)
        index += u64(((now - next_.when) + interval_ - Duration::nanos(1))
                         .ns() /
                     interval_.ns());
    if (index >= at_)
        return;
    Tick tick = tickAt(index);
    if (tick.when == now && engine_.dispatchedBefore(tick.when, tick.key))
        advance(tick);
    if (tick.index < at_)
        place(tick);
}

void
Poller::schedule()
{
    interval_ = tuning().pollInterval;
    CHECK_GT(interval_.ns(), 0);
    next_ = Tick{0, engine_.now() + interval_, engine_.scheduleKey(), 0};
    place(tickAt(fresh_ ? 0 : std::min(span_, deadlineIndex())));
}

void
Poller::place(const Tick &tick)
{
    if (scheduled_)
        engine_.cancel(event_);
    scheduled_ = true;
    at_ = tick.index;
    elided_sum_ = tick.sum;
    // The poll timer serves whatever sits in the ring when it fires,
    // not the request that happened to be ambient when it was armed —
    // it carries no flow and the root profiler scope, so drained slots
    // carry their own stamped ids instead of a stale one.
    event_ = engine_.atKeyed(tick.when, tick.key, 0, 0, [this] { fire(); });
}

Poller::Tick
Poller::tickAt(u64 index) const
{
    Tick tick = next_;
    while (tick.index < index)
        advance(tick);
    return tick;
}

void
Poller::advance(Tick &tick) const
{
    // An empty tick's only effect: the next tick, keyed as its first
    // child.
    tick.sum += mixKey(u64(tick.when.ns()), tick.key.hash);
    tick.when = tick.when + interval_;
    tick.key.strand = tick.key.hash;
    tick.key.idx = 0;
    tick.key.hash = mixKey(tick.key.strand, 0);
    tick.index++;
}

u64
Poller::deadlineIndex() const
{
    // Ticks at or before last activity + pollIdle keep polling; the
    // first one after it is where the poller re-arms. (next_ is the
    // chain's first tick here.)
    i64 slack = (last_activity_ + tuning().pollIdle - next_.when).ns();
    return slack < 0 ? 0 : u64(slack / interval_.ns()) + 1;
}

void
Poller::fire()
{
    scheduled_ = false;
    if (at_ > next_.index)
        engine_.creditElided(at_ - next_.index, elided_sum_);
    if (drain()) {
        last_activity_ = engine_.now();
        span_ = kFirstSpan;
    } else {
        span_ *= 2; // quiet: look further ahead next time
    }
    if (engine_.now() - last_activity_ <= tuning().pollIdle) {
        schedule();
        return;
    }
    // Quiet too long: re-arm the producer's event before going idle.
    // A publish that raced the re-arm keeps us awake.
    if (rearm_()) {
        last_activity_ = engine_.now();
        drain();
        schedule();
    }
}

bool
Poller::drain()
{
    fresh_ = false;
    return drain_();
}

} // namespace mirage::sim
