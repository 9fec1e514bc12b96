#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

// Seeded violation: a periodic daemon's body rotates the per-CPU
// list, and findNode holds index i across a charge() that can run
// that body (charge -> runDue -> fn() -> the daemon body). The body
// reaches the event queue only through Daemon::setBody, so the
// hazard shows only if setBody counts as a callback registration.

struct EventQueue {
    void schedule(long when, std::function<void()> fn) {
        _pending.push_back(std::move(fn));
        (void)when;
    }
    void runDue() {
        while (!_pending.empty()) {
            std::function<void()> fn = std::move(_pending.back());
            _pending.pop_back();
            fn();
        }
    }
    std::vector<std::function<void()>> _pending;
};

struct Machine {
    void charge(long ticks) {
        _now += ticks;
        _events.runDue();
    }
    long _now = 0;
    EventQueue _events;
};

struct Daemon {
    explicit Daemon(Machine &machine) : _machine(machine) {}
    void setBody(std::function<long(long)> body) { _body = std::move(body); }
    void start(long period) {
        _period = period;
        arm(period);
    }
    void arm(long delay) {
        _machine._events.schedule(_machine._now + delay,
                                  [this] { arm(_body(_period)); });
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
