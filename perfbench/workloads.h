/**
 * @file
 * The benchmark's workloads. Each runs one repetition from a seed:
 * the same seed gives the same inputs and bit-identical virtual
 * metrics; @p tr, when set, makes it a traced repetition.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "harness.h"

namespace perfbench {

Rep runFleetBoot(u64 seed, Tracing *tr);
Rep runDnsUdp(u64 seed, Tracing *tr);
Rep runWebStore(u64 seed, Tracing *tr);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
