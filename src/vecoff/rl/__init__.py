"""Learning schedulers: state encoding, reward shaping, numpy networks, training
environments, DQN and PPO over one snapshot keeper, and policy persistence."""
