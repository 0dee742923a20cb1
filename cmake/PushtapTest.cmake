# add_pushtap_test(<area>)
#
# Convention-driven test registration: globs tests/<area>/test_*.cpp into a
# single pushtap_test_<area> binary, links it against the core library, the
# shared tests/test_main.cpp, and gtest, and registers it with CTest. New
# test files dropped into an existing tests/<area>/ directory are picked up
# on reconfigure with no CMake edits.
#
# Every binary runs as PUSHTAP_TEST_SHARDS ctest tests, one gtest shard
# each (GTEST_TOTAL_SHARDS / GTEST_SHARD_INDEX), so `ctest -j` spreads a
# large binary over cores and each shard meets TIMEOUT on its own even
# under the sanitizers. Shard 0 keeps the area's name (`olap`), the others
# are `olap.1` ... `olap.3`; select a whole area with -R '^olap(\.[0-9]+)?$'.
set(PUSHTAP_TEST_SHARDS 4)

function(add_pushtap_test area)
  file(GLOB test_sources CONFIGURE_DEPENDS
       ${PROJECT_SOURCE_DIR}/tests/${area}/test_*.cpp)
  if(NOT test_sources)
    message(FATAL_ERROR "add_pushtap_test(${area}): no test_*.cpp under tests/${area}/")
  endif()
  set(target pushtap_test_${area})
  add_executable(${target} ${test_sources} ${PROJECT_SOURCE_DIR}/tests/test_main.cpp)
  target_link_libraries(${target} PRIVATE pushtap pushtap_warnings GTest::gtest)
  target_include_directories(${target} PRIVATE ${PROJECT_SOURCE_DIR}/tests)
  math(EXPR last "${PUSHTAP_TEST_SHARDS} - 1")
  foreach(shard RANGE ${last})
    if(shard EQUAL 0)
      set(name ${area})
    else()
      set(name ${area}.${shard})
    endif()
    add_test(NAME ${name} COMMAND ${target})
    set_tests_properties(${name} PROPERTIES
      TIMEOUT 300
      ENVIRONMENT "GTEST_TOTAL_SHARDS=${PUSHTAP_TEST_SHARDS};GTEST_SHARD_INDEX=${shard}")
  endforeach()
endfunction()
