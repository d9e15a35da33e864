pub mod tanh_inputs;
