#ifndef MRX_CORE_MRX_H_
#define MRX_CORE_MRX_H_

/// \file Umbrella header: everything a typical user of the library needs.
/// The paper's primary contribution (M(k)/M*(k) and the adaptive session
/// loop) plus the supporting model types. Include fine-grained headers
/// directly for the baselines and substrates.

#include "graph/data_graph.h"       // DataGraph, DataGraphBuilder
#include "index/m_k_index.h"        // MkIndex (§3)
#include "index/m_star_index.h"     // MStarIndex (§4)
#include "query/data_evaluator.h"   // ground truth / validation
#include "query/path_expression.h"  // PathExpression
#include "server/concurrent_session.h"  // ConcurrentSession (Figure 5)
#include "util/result.h"            // Status / Result
#include "workload/fup_extractor.h" // FupExtractor
#include "xml/graph_builder.h"      // BuildGraphFromXml

#endif  // MRX_CORE_MRX_H_
