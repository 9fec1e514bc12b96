/**
 * @file
 * Lambdas on an EventQueue, for tests. The queue takes only owned
 * Event nodes; LambdaEvents owns one node per at() call, so a
 * scheduled lambda stays pending, and cancellable, for as long as
 * the LambdaEvents lives, and is cancelled when it dies.
 */

#ifndef KLOC_TESTS_SUPPORT_LAMBDA_EVENTS_HH
#define KLOC_TESTS_SUPPORT_LAMBDA_EVENTS_HH

#include <deque>
#include <functional>
#include <utility>

#include "sim/event_queue.hh"

namespace kloc {

class LambdaEvents
{
  public:
    explicit LambdaEvents(EventQueue &queue) : _queue(queue) {}

    /** Run @p fn once the clock reaches @p when; returns its node. */
    Event &
    at(Tick when, std::function<void()> fn)
    {
        Node &node = _nodes.emplace_back(std::move(fn));
        _queue.schedule(node, when);
        return node;
    }

  private:
    struct Node : Event
    {
        explicit Node(std::function<void()> fn)
            : Event(&Node::fire), fn(std::move(fn))
        {}

        static void fire(Event &event) { static_cast<Node &>(event).fn(); }

        std::function<void()> fn;
    };

    EventQueue &_queue;
    std::deque<Node> _nodes;  ///< never moves a pending node
};

} // namespace kloc

#endif // KLOC_TESTS_SUPPORT_LAMBDA_EVENTS_HH
