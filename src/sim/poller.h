/**
 * @file
 * Adaptive ring polling (the NAPI shape): while a ring is busy its
 * consumer parks the producer's event and drains on a short timer
 * instead of per-publish doorbells; after a quiet period it re-arms the
 * event and goes idle. With the poll cadence at the upcall latency,
 * polled delivery is no slower than a notify — it just stops paying the
 * evtchn_send hypercall per publish.
 *
 * The owner supplies two callbacks:
 *  - drain: park the producer event(s) and consume everything
 *    available; return true when anything was consumed.
 *  - rearm: re-arm the producer event(s) (finalCheck…); return true
 *    when work raced in, which keeps the poller alive one more round.
 *
 * Tick elision. The modelled cadence is one tick every pollInterval
 * until a tick finds the ring quiet for longer than pollIdle. A tick
 * whose rings are empty has exactly one effect: it schedules the next
 * tick, keyed (strand = its own hash, idx = 0). A run of empty ticks is
 * therefore a hash chain the poller can compute instead of dispatch,
 * so it keeps one real event per chain and places it on the first tick
 * that can do work:
 *  - the idle deadline, or a geometric horizon (4, 8, 16, … ticks)
 *    before it, at which an empty tick simply starts the next chain —
 *    keys are derived lazily, never more than one horizon ahead;
 *  - the first tick ordered after a producer's publish, which the ring
 *    reports through notePublish() (xen::FrontRing/BackRing call it for
 *    the ring end whose consumer attached this poller).
 * The ticks it skips are credited to the engine (Engine::creditElided)
 * when the real tick fires, on cancel() for those ordered before now,
 * and at each shard window's end for those inside it, so eventsRun()
 * and dispatchChecksum() equal the eager cadence's at quiescence, each
 * sharded window counts the events it would have dispatched, and
 * everything the ticks schedule carries the eager causal keys: the
 * elision changes no virtual result.
 *
 * Invariants the owner must keep:
 *  - events are only parked from code paths that also kick() the
 *    poller (or, like blkback, have another guaranteed future drain).
 *    Parked events with no scheduled poll would deadlock the ring;
 *  - drain consumes everything published so far and, when it finds
 *    nothing, does nothing else (no scheduling, no charges);
 *  - every ring the drain consumes reports its publishes here, and the
 *    producer runs on this poller's engine.
 */

#ifndef MIRAGE_SIM_POLLER_H
#define MIRAGE_SIM_POLLER_H

#include <functional>

#include "sim/engine.h"

namespace mirage::sim {

class Poller
{
  public:
    Poller(Engine &engine, std::function<bool()> drain,
           std::function<bool()> rearm);
    ~Poller();
    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Activity observed: the owner has just drained its rings in this
     *  event. Start or extend polling mode. */
    void kick();

    /** True while a poll is scheduled (events may stay parked). */
    bool active() const { return scheduled_; }

    /**
     * Drop any scheduled poll (teardown; idempotent), crediting the
     * skipped ticks ordered before now. The owner must re-arm its ring
     * events itself if they are still parked.
     */
    void cancel();

    /**
     * A producer published new entries on a ring this poller drains:
     * move the scheduled tick up to the first one that sees them.
     * Charges no virtual time and touches no ring field.
     */
    void notePublish();

    /** Time of the first skipped tick not yet credited, or
     *  Engine::kNever (Engine::nextEventTime). */
    TimePoint nextElidedTick() const
    {
        return scheduled_ && next_.index < at_ ? next_.when
                                               : Engine::kNever;
    }

    /** Credit the skipped ticks before @p end: a shard window closing
     *  there would have dispatched them (Engine::runWindow). */
    void creditBefore(TimePoint end);

  private:
    /** One tick of the current chain, walked forward from next_. */
    struct Tick
    {
        u64 index = 0; //!< ticks since the chain's first
        TimePoint when;
        CrossKey key;
        u64 sum = 0; //!< Σ mixKey(when, hash) over ticks [next_, index)
    };

    /** Start a chain at now + pollInterval, keyed as at() would. */
    void schedule();
    /** Put the chain's one real event on @p tick. */
    void place(const Tick &tick);
    Tick tickAt(u64 index) const;
    void advance(Tick &tick) const;
    /** Credit the skipped ticks before @p upto (a tickAt() result). */
    void credit(const Tick &upto);
    /** Index of the new chain's idle-deadline tick. */
    u64 deadlineIndex() const;
    void fire();
    bool drain();

    /** First horizon after a tick that did work. */
    static constexpr u64 kFirstSpan = 4;

    Engine &engine_;
    std::function<bool()> drain_;
    std::function<bool()> rearm_;
    TimePoint last_activity_;
    EventId event_ = 0;
    bool scheduled_ = false;

    // The current chain: one tick every interval_, the ticks before
    // next_ already credited, the one at at_ carrying the real event.
    Duration interval_;
    Tick next_;
    u64 at_ = 0;
    u64 elided_sum_ = 0; //!< checksum credit for ticks [next_, at_)
    u64 span_ = kFirstSpan;

    // A publish seen while no chain was scheduled, and the event it
    // came from: kick() trusts the owner's drain only for earlier ones.
    bool fresh_ = false;
    TimePoint fresh_at_;
    u64 fresh_hash_ = 0;
};

} // namespace mirage::sim

#endif // MIRAGE_SIM_POLLER_H
