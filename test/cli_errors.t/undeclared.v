module m(clk, a);
  input clk;
  input a;
  wire b;
  assign b = nope;
endmodule
