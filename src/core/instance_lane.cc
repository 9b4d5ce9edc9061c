#include "core/instance_lane.hh"

namespace nscs {

void
InstanceLane::init(uint32_t neurons)
{
    v.assign(neurons, 0);
    doneThrough.assign(neurons, 0);
    scheduledFire.assign(neurons, 0);
    selfEvents.clear();
    selfEventsStale = 0;
    firedBits = BitVec(neurons);
}

size_t
InstanceLane::footprintBytes() const
{
    return v.capacity() * sizeof(int32_t) +
           doneThrough.capacity() * sizeof(uint64_t) +
           scheduledFire.capacity() * sizeof(uint64_t) +
           selfEvents.capacity() *
               sizeof(std::pair<uint64_t, uint32_t>) +
           firedBits.footprintBytes();
}

void
InstanceLanes::init(uint32_t instances, uint32_t neurons)
{
    lanes.clear();
    lanes.resize(instances);
    for (InstanceLane &lane : lanes)
        lane.init(neurons);
}

size_t
InstanceLanes::footprintBytes() const
{
    size_t total = lanes.capacity() * sizeof(InstanceLane);
    for (const InstanceLane &lane : lanes)
        total += lane.footprintBytes();
    return total;
}

} // namespace nscs
