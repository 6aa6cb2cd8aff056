# Attaches the benchmark to the library's own build.  benchmark/run.sh
# configures the repository root with
#
#   cmake -S . -B build/benchmark -DCMAKE_PROJECT_gppm_INCLUDE=benchmark/attach.cmake \
#         -DGPPM_BUILD_TESTS=OFF -DGPPM_BUILD_BENCHES=OFF -DGPPM_BUILD_EXAMPLES=OFF
#
# CMake includes this file right after the library's project() call.  The
# benchmark's targets are defined once the library's top-level CMakeLists
# has finished, in its directory, so they compile with exactly the flags
# the library compiles with (-march, -ffp-contract, GPPM_SIMD_FORCE_SCALAR):
# inline code from the library's headers (common/simd.hpp) must not differ
# between the two.  A standalone project cannot add_subdirectory() the
# library, whose CMake files locate src/ and tools/ through
# CMAKE_SOURCE_DIR.
if(CMAKE_VERSION VERSION_LESS 3.19)
  # cmake_language(DEFER) below and string(JSON) in CMakeLists.txt.
  message(FATAL_ERROR "benchmark/ needs CMake >= 3.19, found ${CMAKE_VERSION}")
endif()
enable_testing()
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
