/**
 * @file
 * Property test: the simulated filesystem against a trivial
 * in-memory reference model, under thousands of random operations in
 * data-backed mode. Catches offset arithmetic, cache coherence,
 * truncation-by-unlink, and lifecycle bugs that unit tests miss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "platform/two_tier.hh"

namespace kloc {
namespace {

/** Reference model: name -> byte vector. */
struct ModelFile
{
    std::vector<char> bytes;
    int fd = -1;  ///< open descriptor in the simulated FS, if any
};

/** The model's names in sorted (std::string operator<) order. */
std::vector<std::string>
modelNames(const std::map<std::string, ModelFile> &model)
{
    std::vector<std::string> names;
    for (const auto &entry : model)
        names.push_back(entry.first);
    return names;
}

class VfsPropertyTest : public ::testing::TestWithParam<int>
{};

TEST_P(VfsPropertyTest, MatchesReferenceModel)
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    config.system.fs.dataBacked = true;
    TwoTierPlatform platform(config);
    platform.applyPolicyByName("klocs");
    System &sys = platform.sys();
    sys.fs().startDaemons();
    FileSystem &fs = sys.fs();

    Rng rng(static_cast<uint64_t>(GetParam()));
    std::map<std::string, ModelFile> model;
    uint64_t name_counter = 0;
    constexpr Bytes kMaxFile = 24 * kPageSize;

    auto random_file = [&]() -> std::pair<const std::string,
                                          ModelFile> * {
        if (model.empty())
            return nullptr;
        auto it = model.begin();
        std::advance(it, static_cast<long>(
                             rng.nextBounded(model.size())));
        return &*it;
    };

    for (int step = 0; step < 2500; ++step) {
        const double action = rng.nextDouble();
        if (action < 0.15) {
            // create
            const std::string name =
                std::string("p").append(std::to_string(name_counter++));
            const int fd = fs.create(name);
            ASSERT_GE(fd, 0);
            model[name] = ModelFile{{}, fd};
        } else if (action < 0.45) {
            // write somewhere random in a random open file
            auto *entry = random_file();
            if (!entry || entry->second.fd < 0)
                continue;
            const Bytes offset{rng.nextBounded(kMaxFile / 2)};
            const Bytes length{1 + rng.nextBounded(3 * kPageSize)};
            std::vector<char> data(length);
            for (auto &b : data)
                b = static_cast<char>(rng.nextBounded(256));
            ASSERT_EQ(fs.write(entry->second.fd, offset, length,
                               data.data()),
                      length);
            auto &bytes = entry->second.bytes;
            if (bytes.size() < offset + length)
                bytes.resize(offset + length, 0);
            std::memcpy(bytes.data() + offset, data.data(), length);
        } else if (action < 0.75) {
            // read and compare
            auto *entry = random_file();
            if (!entry || entry->second.fd < 0)
                continue;
            const auto &bytes = entry->second.bytes;
            ASSERT_EQ(fs.fileSize(entry->first), bytes.size());
            if (bytes.empty())
                continue;
            const Bytes offset{rng.nextBounded(bytes.size())};
            const Bytes want{
                std::min<uint64_t>(1 + rng.nextBounded(2 * kPageSize),
                                   bytes.size() - offset)};
            std::vector<char> got(want, 0);
            ASSERT_EQ(fs.read(entry->second.fd, offset, want,
                              got.data()),
                      want);
            ASSERT_EQ(std::memcmp(got.data(), bytes.data() + offset,
                                  want),
                      0)
                << "data mismatch in " << entry->first << " at "
                << offset;
        } else if (action < 0.83) {
            // fsync
            auto *entry = random_file();
            if (entry && entry->second.fd >= 0)
                fs.fsync(entry->second.fd);
        } else if (action < 0.9) {
            // close + reopen (knode inactive -> active round trip)
            auto *entry = random_file();
            if (!entry || entry->second.fd < 0)
                continue;
            fs.close(entry->second.fd);
            entry->second.fd = fs.open(entry->first);
            ASSERT_GE(entry->second.fd, 0);
        } else if (action < 0.97) {
            // close + unlink
            auto *entry = random_file();
            if (!entry)
                continue;
            if (entry->second.fd >= 0)
                fs.close(entry->second.fd);
            ASSERT_TRUE(fs.unlink(entry->first));
            model.erase(entry->first);
        } else {
            // let daemons run
            sys.machine().charge(10 * kMillisecond);
        }
    }

    // Full verification sweep.
    for (auto &[name, file] : model) {
        ASSERT_EQ(fs.fileSize(name), file.bytes.size());
        if (file.fd < 0)
            file.fd = fs.open(name);
        if (file.bytes.empty())
            continue;
        std::vector<char> got(file.bytes.size(), 0);
        ASSERT_EQ(fs.read(file.fd, Bytes{0}, Bytes{got.size()}, got.data()),
                  got.size());
        ASSERT_EQ(std::memcmp(got.data(), file.bytes.data(),
                              got.size()),
                  0)
            << "final sweep mismatch in " << name;
        fs.close(file.fd);
        file.fd = -1;
    }
    // readdir returns exactly the model's names, in sorted order.
    EXPECT_EQ(fs.readdir(), modelNames(model));
}

TEST_P(VfsPropertyTest, ReaddirIsSortedAcrossCreateAndUnlink)
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    TwoTierPlatform platform(config);
    platform.applyPolicyByName("klocs");
    FileSystem &fs = platform.sys().fs();

    // Numeric suffixes whose lexicographic and numeric orders differ
    // (f_10 < f_100 < f_9), created and unlinked interleaved.
    Rng rng(static_cast<uint64_t>(GetParam()));
    std::map<std::string, ModelFile> model;
    for (int step = 0; step < 400; ++step) {
        const std::string name =
            "f_" + std::to_string(rng.nextBounded(150));
        if (model.count(name)) {
            ASSERT_TRUE(fs.unlink(name));
            model.erase(name);
        } else {
            const int fd = fs.create(name);
            ASSERT_GE(fd, 0);
            fs.close(fd);
            model[name] = ModelFile{};
        }
        if (step % 25 == 0) {
            ASSERT_EQ(fs.readdir(), modelNames(model)) << "step " << step;
        }
    }
    for (const char *name : {"f_9", "f_10", "f_100"}) {
        if (!model.count(name)) {
            fs.close(fs.create(name));
            model[name] = ModelFile{};
        }
    }
    const std::vector<std::string> names = fs.readdir();
    EXPECT_EQ(names, modelNames(model));
    const auto pos = [&](const std::string &name) {
        return std::find(names.begin(), names.end(), name) - names.begin();
    };
    EXPECT_LT(pos("f_10"), pos("f_100"));
    EXPECT_LT(pos("f_100"), pos("f_9"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

} // namespace
} // namespace kloc
