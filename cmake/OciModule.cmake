# Helper for declaring one oci::<name> module library with the
# repo-wide layout src/<name>/{include,src}.
#
#   oci_add_module(<name> [DEPS <module>...] [LINK <target>...])
#
# Creates a static library `oci_<name>` (alias `oci::<name>`) from
# src/*.cpp, exports include/ publicly, and links the named module
# dependencies PUBLIC so transitive includes resolve for consumers.
# Every library compiles with -ffp-contract=off (OCI_FP_CONTRACT_OFF,
# see the root CMakeLists.txt).
function(oci_add_module name)
  cmake_parse_arguments(ARG "" "" "DEPS;LINK" ${ARGN})

  file(GLOB _oci_srcs CONFIGURE_DEPENDS "${CMAKE_CURRENT_SOURCE_DIR}/src/*.cpp")
  if(NOT _oci_srcs)
    message(FATAL_ERROR "oci_add_module(${name}): no sources under ${CMAKE_CURRENT_SOURCE_DIR}/src")
  endif()

  add_library(oci_${name} STATIC ${_oci_srcs})
  add_library(oci::${name} ALIAS oci_${name})

  target_include_directories(oci_${name}
    PUBLIC $<BUILD_INTERFACE:${CMAKE_CURRENT_SOURCE_DIR}/include>)

  foreach(dep IN LISTS ARG_DEPS)
    target_link_libraries(oci_${name} PUBLIC oci::${dep})
  endforeach()
  if(ARG_LINK)
    target_link_libraries(oci_${name} PUBLIC ${ARG_LINK})
  endif()

  target_compile_options(oci_${name} PRIVATE ${OCI_WARNING_FLAGS} ${OCI_FP_CONTRACT_OFF})
endfunction()
