"""Graph construction, clustering, network scorers and their training."""
