"""The repository benchmark: workloads, outside-in layer timing, checks."""
