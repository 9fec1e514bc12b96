/**
 * @file
 * Adversarial tiering workload (extension; §6 motivation): a working
 * set that oscillates deterministically around the fast-tier
 * capacity, the pattern migration policies are most prone to thrash
 * on.
 *
 * The arena is sized at 2x the paper-scale fast tier (16 GB vs. the
 * 8 GB fast tier of Table 4, both divided by the platform scale).
 * The live working set is a window that slides steadily through the
 * arena while its size follows a triangle wave between 0.75x and
 * 1.25x fast capacity: pages ahead of the window must be promoted to
 * be served fast, pages behind it go cold and must be demoted to
 * make room, and the wave crests guarantee the window never fits —
 * eager promotion keeps paying full migration cost for pages the
 * slide is about to abandon. Shadow-keeping (Nomad) demotes the
 * abandoned pages for free, and rate-adaptive scanning (Jenga)
 * throttles promotion when the reuse histogram collapses.
 *
 * The first fifth of the working set is a write band; the tail is
 * read-mostly, so transactional copies of tail pages commit while
 * write-band copies abort. A light file-append side-channel keeps
 * kernel-object (KLOC) pressure non-zero without dominating.
 */

#ifndef KLOC_WORKLOAD_THRASH_HH
#define KLOC_WORKLOAD_THRASH_HH

#include <algorithm>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "workload/workload.hh"

namespace kloc {

/** Fast-tier-capacity-straddling triangle-wave thrasher. */
class ThrashWorkload : public Workload
{
  public:
    /** Paper-scale arena: 2x the Table 4 fast tier. */
    static constexpr Bytes kPaperArena = 16 * kGiB;
    /** Working-set bounds as arena fractions (0.75x/1.25x fast). */
    static constexpr double kWsMinFraction = 0.375;
    static constexpr double kWsMaxFraction = 0.625;
    /** Operations per full triangle-wave period. */
    static constexpr uint64_t kWavePeriod = 4096;
    /**
     * Working-set pages swept per operation. Sized so one wave
     * period spans several 100 ms scan ticks of the default policies
     * (a single-page op finishes the whole run inside one scan
     * period and no policy ever reacts), while one working-set lap
     * stays well inside a scan period so resident pages look hot.
     */
    static constexpr uint64_t kChunkPages = 512;
    /**
     * Window slide per operation. Slow enough that abandoned pages
     * stay cold for several scan ticks (so LRU aging can actually
     * demote them) before the window wraps around the arena.
     */
    static constexpr uint64_t kSlidePages = 2;
    /** Leading fraction of the working set that takes writes. */
    static constexpr uint64_t kWriteBandDiv = 5;
    /** One log append every this many ops (kernel-object churn). */
    static constexpr uint64_t kLogInterval = 64;
    static constexpr uint64_t kLogFiles = 8;
    static constexpr Bytes kLogBytes = 16 * kKiB;

    explicit ThrashWorkload(const WorkloadConfig &config);

    const char *name() const override { return "thrash"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

    /** Working-set size (pages) at operation @p op; deterministic. */
    uint64_t workingSetAt(uint64_t op) const;

    /**
     * One operation's sweep: @p chunk window slots from @p cursor
     * onward, slot `pos = (cursor + j) % ws` landing on arena page
     * `(base + pos) % arena` and writing when `pos * kWriteBandDiv <
     * ws`. Calls @p run(first_page, len, write) for each run of
     * consecutive slots on consecutive pages, in order; a run ends
     * where the window wraps, where the arena wraps and at the
     * write-band edge `(ws + kWriteBandDiv - 1) / kWriteBandDiv`.
     * Needs `base < arena` and `1 <= ws <= arena`; @p cursor may be
     * any value (it is left over from a larger window when the wave
     * shrinks).
     * @return the next operation's cursor, `(cursor + chunk) % ws`.
     */
    template <typename Run>
    static uint64_t
    sweepChunk(uint64_t base, uint64_t ws, uint64_t arena, uint64_t cursor,
               uint64_t chunk, Run &&run)
    {
        KLOC_ASSERT(base < arena && ws >= 1 && ws <= arena,
                    "sweep window %llu+%llu outside arena %llu",
                    static_cast<unsigned long long>(base),
                    static_cast<unsigned long long>(ws),
                    static_cast<unsigned long long>(arena));
        const uint64_t band = (ws + kWriteBandDiv - 1) / kWriteBandDiv;
        uint64_t pos = cursor % ws;
        // base + pos < base + ws <= base + arena < 2 * arena.
        uint64_t page = base + pos;
        if (page >= arena)
            page -= arena;
        while (chunk > 0) {
            const bool write = pos < band;
            const uint64_t len =
                std::min({chunk, (write ? band : ws) - pos, arena - page});
            run(page, len, write);
            chunk -= len;
            pos += len;
            page += len;
            if (pos == ws) {
                pos = 0;
                page = base;
            } else if (page == arena) {
                page = 0;
            }
        }
        return pos;
    }

  private:
    FdCache _fdCache;
    std::vector<std::string> _logs;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_THRASH_HH
