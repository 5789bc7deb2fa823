// Custom gtest entry point: the kill -9 recovery test respawns THIS
// binary as the journaled child (fork + execl of /proc/self/exe), so the
// child flag must be recognized before gtest ever parses argv.
#include <gtest/gtest.h>

#include <cstring>

#include "storage_test_util.hpp"

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--recovery-kill9-child") == 0)
    return eyw::storage::kill9_child_main(argv[2]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
