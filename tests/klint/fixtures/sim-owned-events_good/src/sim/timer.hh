#ifndef KLOC_SIM_TIMER_HH
#define KLOC_SIM_TIMER_HH

// The timer owns its event node; stop() unlinks it from the queue.
struct Event
{
    bool pending = false;
};

struct Timer
{
    void start() { _run.pending = true; }
    void stop() { _run.pending = false; }

    Event _run;
};

#endif // KLOC_SIM_TIMER_HH
