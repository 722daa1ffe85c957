#include "sim/engine.h"

#include <algorithm>

#include "sim/poller.h"
#include "sim/shard.h"

#include "base/logging.h"
#include "trace/flow.h"
#include "trace/metrics.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::sim {

thread_local Engine *Engine::current_ = nullptr;

Engine::Slot *
Engine::slotFor(EventId id)
{
    u32 idx = u32(id & 0xffffffffu);
    if (idx == 0 || idx > slots_.size())
        return nullptr;
    Slot &s = slots_[idx - 1];
    if (s.gen != u32(id >> 32))
        return nullptr; // slot recycled since this id was minted
    return &s;
}

void
Engine::releaseSlot(u32 idx)
{
    Slot &s = slots_[idx];
    s.gen++; // invalidate outstanding ids naming this slot
    s.state = SlotState::Free;
    free_slots_.push_back(idx);
}

CrossKey
Engine::nextKey()
{
    CrossKey k;
    k.strand = cur_hash_;
    k.idx = next_child_++;
    k.hash = mixKey(k.strand, k.idx);
    return k;
}

CrossKey
Engine::scheduleKey()
{
    // Root-context scheduling (setup code, no event dispatching) on a
    // sharded engine draws its key from the *primary* shard's root
    // counter: setup runs in program order on one thread, so the key
    // sequence — and with it every derived causal hash — is identical
    // no matter which shard each domain was placed on.
    return (!current_ && shards_) ? rootKeyFromSet() : nextKey();
}

bool
Engine::dispatchedBefore(TimePoint t, const CrossKey &key) const
{
    if (t != now_)
        return t < now_;
    if (key.strand != cur_strand_)
        return key.strand < cur_strand_;
    return key.idx < cur_idx_;
}

void
Engine::creditElided(u64 n, u64 checksum)
{
    events_run_ += n;
    checksum_ += checksum;
    trace::bump(c_dispatched_, n);
    trace::bump(c_elided_, n);
}

EventId
Engine::atKeyed(TimePoint t, const CrossKey &key, u64 flow, u32 pscope,
                std::function<void()> fn)
{
    if (t < now_)
        t = now_; // late scheduling runs as soon as possible
    u32 idx;
    if (!free_slots_.empty()) {
        idx = free_slots_.back();
        free_slots_.pop_back();
    } else {
        idx = u32(slots_.size());
        slots_.push_back(Slot{});
    }
    Slot &s = slots_[idx];
    s.state = SlotState::Pending;
    EventId id = (u64(s.gen) << 32) | (idx + 1);
    live_++;
    queue_.push_back(Item{t, key.strand, key.idx, key.hash, id, flow,
                          pscope, std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end(), std::greater<Item>());
    return id;
}

EventId
Engine::at(TimePoint t, std::function<void()> fn)
{
    u64 flow = flows_ ? flows_->current() : 0;
    u32 pscope = profiler_ ? profiler_->current() : 0;
    return atKeyed(t, scheduleKey(), flow, pscope, std::move(fn));
}

CrossKey
Engine::rootKeyFromSet()
{
    return shards_->rootKey();
}

EventId
Engine::after(Duration d, std::function<void()> fn)
{
    return at(now_ + d, std::move(fn));
}

void
Engine::cancel(EventId id)
{
    // The generation check makes cancel safe against fired, recycled
    // or invented ids: only an id still naming its live slot can flip
    // it to Cancelled.
    Slot *s = slotFor(id);
    if (!s || s->state != SlotState::Pending)
        return;
    s->state = SlotState::Cancelled;
    cancelled_count_++;
}

void
Engine::setMetrics(trace::MetricsRegistry *metrics)
{
    metrics_ = metrics;
    c_dispatched_ = metrics ? &metrics->counter("sim.events_run") : nullptr;
    c_cancelled_ =
        metrics ? &metrics->counter("sim.events_cancelled") : nullptr;
    c_elided_ = metrics ? &metrics->counter("sim.polls_elided") : nullptr;
}

void
Engine::dropHead(u32 slot)
{
    // Reached the cancelled slot: drop all bookkeeping for it.
    releaseSlot(slot);
    cancelled_count_--;
    live_--;
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<Item>());
    queue_.pop_back();
    trace::bump(c_cancelled_);
}

bool
Engine::dispatchOne(bool bounded, TimePoint limit)
{
    while (!queue_.empty()) {
        const Item &top = queue_.front();
        u32 idx = u32(top.id & 0xffffffffu) - 1;
        if (slots_[idx].state == SlotState::Cancelled) {
            dropHead(idx);
            continue;
        }
        if (bounded && top.when > limit)
            return false;
        std::pop_heap(queue_.begin(), queue_.end(), std::greater<Item>());
        Item item = std::move(queue_.back());
        queue_.pop_back();
        releaseSlot(idx);
        live_--;
        now_ = item.when;
        cur_strand_ = item.strand;
        cur_idx_ = item.idx;
        events_run_++;
        checksum_ += mixKey(u64(item.when.ns()), item.hash);
        trace::bump(c_dispatched_);
        if (tracer_ && tracer_->enabled())
            tracer_->instant(trace::Cat::Engine, "dispatch", now_, 0,
                             strprintf("\"id\":%llu",
                                       (unsigned long long)item.id));
        {
            // Restore the scheduling context's flow and profiler scope
            // for the duration of the callback; anything it schedules
            // inherits them — including the causal key context, so
            // children order deterministically under (when, strand,
            // idx) whatever thread runs this. Both scopes are
            // null-safe.
            trace::FlowScope scope(flows_, item.flow);
            trace::ProfRestore pscope(profiler_, item.pscope);
            Engine *prev_engine = current_;
            u64 prev_hash = cur_hash_;
            u64 prev_child = next_child_;
            current_ = this;
            cur_hash_ = item.hash;
            next_child_ = 0;
            item.fn();
            cur_hash_ = prev_hash;
            next_child_ = prev_child;
            current_ = prev_engine;
        }
        return true;
    }
    return false;
}

bool
Engine::step()
{
    return dispatchOne(false, TimePoint());
}

void
Engine::run()
{
    while (step()) {
    }
}

void
Engine::runUntil(TimePoint t)
{
    while (dispatchOne(true, t)) {
    }
    if (now_ <= t) {
        // Everything at or before t has run, whatever its key.
        now_ = t;
        cur_strand_ = ~u64(0);
        cur_idx_ = ~u64(0);
    }
}

void
Engine::runFor(Duration d)
{
    runUntil(now_ + d);
}

u64
Engine::runWindow(TimePoint end)
{
    // Events at exactly `end` belong to the next window; the clock is
    // left on the last dispatched event so barrier-time bookkeeping
    // (nextEventTime, cross-post lookahead checks) sees event time.
    u64 before = events_run_;
    while (dispatchOne(true, TimePoint(end.ns() - 1))) {
    }
    for (Poller *p : pollers_)
        p->creditBefore(end);
    return events_run_ - before;
}

TimePoint
Engine::nextEventTime()
{
    while (!queue_.empty()) {
        const Item &top = queue_.front();
        u32 idx = u32(top.id & 0xffffffffu) - 1;
        if (slots_[idx].state == SlotState::Cancelled) {
            dropHead(idx);
            continue;
        }
        break;
    }
    TimePoint t = queue_.empty() ? kNever : queue_.front().when;
    for (const Poller *p : pollers_)
        t = std::min(t, p->nextElidedTick());
    return t;
}

void
Engine::addPoller(Poller *poller)
{
    CHECK(!current_ || current_ == this);
    pollers_.push_back(poller);
}

void
Engine::removePoller(Poller *poller)
{
    CHECK(!current_ || current_ == this);
    auto it = std::find(pollers_.begin(), pollers_.end(), poller);
    CHECK(it != pollers_.end());
    *it = pollers_.back();
    pollers_.pop_back();
}

} // namespace mirage::sim
