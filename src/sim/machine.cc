#include "sim/machine.hh"

namespace kloc {

Machine::Machine(unsigned num_cpus, unsigned num_sockets)
    : _numCpus(num_cpus), _numSockets(num_sockets)
{
    KLOC_ASSERT(num_cpus > 0, "machine needs at least one cpu");
    KLOC_ASSERT(num_sockets > 0 && num_sockets <= num_cpus,
                "bad socket count %u", num_sockets);
}

void
Machine::reset()
{
    _clock.reset();
    _events.clear();
    _currentCpu = 0;
    _currentSocket = 0;
    _refs.reset();
}

} // namespace kloc
