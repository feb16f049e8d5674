// Multidimensional distributed arrays and region operations.
//
// There is one array type: DistributedArray<T> (distributed_array.hpp)
// holds an array of any rank, and MultiDimArray<T> is its N-D spelling.
// HPF distributes each dimension independently onto one axis of the
// processor grid (paper, Section 2: "the memory access problem simply
// reduces to multiple applications of the algorithm for the
// one-dimensional case"), so region operations (section_ops.hpp) walk the
// product of per-dimension access sequences, and region copies compose
// those sequences into one CommPlan (build_region_plan, redistribute.hpp)
// cached in the process-wide RegionPlanCache (plan_cache.hpp). This header
// gathers them.
#pragma once

#include "cyclick/runtime/section_ops.hpp"
