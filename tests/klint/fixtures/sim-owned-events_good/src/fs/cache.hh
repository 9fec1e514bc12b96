#ifndef KLOC_FS_CACHE_HH
#define KLOC_FS_CACHE_HH

#include <memory>

// Shared ownership outside src/sim is not this rule's business.
struct Cache
{
    std::shared_ptr<int> _shared = std::make_shared<int>(0);
};

#endif // KLOC_FS_CACHE_HH
