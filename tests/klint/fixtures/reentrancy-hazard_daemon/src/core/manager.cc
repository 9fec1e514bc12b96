#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

// Seeded violation: a periodic daemon's body rotates the per-CPU
// list, and findNode holds index i across a charge() that can run
// that body (charge -> runDue -> _fn -> the daemon body). The queue
// holds owned event nodes and dispatches through each node's plain
// function pointer, the Daemon's static trampoline; the body reaches
// it only through Daemon::setBody. The hazard shows only if the
// `_fn` dispatch is an indirect call and setBody counts as a
// callback registration.

struct Event {
    using Fn = void (*)(Event &);
    explicit Event(Fn fn) : _fn(fn) {}
    Fn _fn;
    long _when = 0;
    Event *_next = nullptr;
};

struct EventQueue {
    void schedule(Event &event, long when) {
        event._when = when;
        event._next = _head;
        _head = &event;
    }
    void runDue(long now) {
        while (_head != nullptr && _head->_when <= now) {
            Event &event = *_head;
            _head = event._next;
            event._fn(event);
        }
    }
    Event *_head = nullptr;
};

struct Machine {
    void charge(long ticks) {
        _now += ticks;
        _events.runDue(_now);
    }
    long _now = 0;
    EventQueue _events;
};

struct Daemon : Event {
    explicit Daemon(Machine &machine)
        : Event(&Daemon::fire), _machine(machine) {}
    void setBody(std::function<long(long)> body) { _body = std::move(body); }
    void start(long period) {
        _period = period;
        arm(period);
    }
    static void fire(Event &event) {
        Daemon &self = static_cast<Daemon &>(event);
        self.arm(self._body(self._period));
    }
    void arm(long delay) {
        _machine._events.schedule(*this, _machine._now + delay);
    }
    Machine &_machine;
    std::function<long(long)> _body;
    long _period = 0;
};

static bool matches(int *entry, int key) { return entry != nullptr && key >= 0; }

struct Manager {
    Manager() : _daemon(_machine) {
        _daemon.setBody([this](long period) {
            rotateFront();
            return period;
        });
        _daemon.start(2);
    }

    void rotateFront() {
        auto &list = _perCpu[0];
        if (list.empty())
            return;
        int *head = list[0];
        list.erase(list.begin());
        list.insert(list.begin(), head);
    }

    int *findNode(int key) {
        auto &list = _perCpu[_cpu];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (matches(list[i], key)) {
                _machine.charge(10);
                if (i != 0) {
                    int *node = list[i];
                    list.erase(list.begin() + i);
                    list.insert(list.begin(), node);
                }
                return list[0];
            }
        }
        return nullptr;
    }

    Machine _machine;
    Daemon _daemon;
    int _cpu = 0;
    std::vector<int *> _perCpu[4];
};
